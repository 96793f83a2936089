//! Absolute simulation time.

use crate::duration::Dur;
use crate::MICROS_PER_SEC;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute instant on the simulation clock, in integer microseconds
/// since the start of the run.
///
/// `Time` is totally ordered and hash-stable, which makes it safe to use as
/// the key of the simulator's event queue. Arithmetic with [`Dur`] saturates
/// at zero on subtraction rather than panicking, because schedulers routinely
/// compute "deadline minus slack" quantities that can go negative; a
/// saturated zero is the correct "already late" answer for every caller in
/// this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "unset deadline".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * crate::MICROS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Time(0);
        }
        Time((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microseconds since the start of the run.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the start of the run.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Fractional milliseconds since the start of the run.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / crate::MICROS_PER_MS as f64
    }

    /// Elapsed duration since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur::from_micros(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.as_micros()))
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, d: Dur) -> Time {
        Time(self.0.saturating_sub(d.as_micros()))
    }
}

impl SubAssign<Dur> for Time {
    #[inline]
    fn sub_assign(&mut self, d: Dur) {
        *self = *self - d;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, other: Time) -> Dur {
        self.since(other)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = Time::from_micros(1);
        let b = Time::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn subtraction_saturates() {
        let early = Time::from_secs(1);
        let late = Time::from_secs(3);
        assert_eq!(early.since(late), Dur::ZERO);
        assert_eq!(late.since(early), Dur::from_secs(2));
        assert_eq!(early - Dur::from_secs(5), Time::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NAN), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::INFINITY), Time::ZERO);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(Time::from_millis(1500).to_string(), "1.500000s");
    }
}
