//! Relative spans of simulation time.

use crate::MICROS_PER_SEC;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative span of simulation time, in integer microseconds.
///
/// Like [`crate::Time`], subtraction saturates at zero: remaining-time and
/// slack computations are pervasive in the scheduler and "none left" is the
/// meaningful floor everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// The largest representable span; used as an "infinite" sentinel.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Dur(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * crate::MICROS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Dur(0);
        }
        Dur((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / crate::MICROS_PER_MS as f64
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative factor, rounding to the nearest microsecond.
    /// Negative or non-finite factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Dur {
        if !factor.is_finite() || factor <= 0.0 {
            return Dur::ZERO;
        }
        Dur((self.0 as f64 * factor).round() as u64)
    }

    /// Longer of two spans.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Shorter of two spans.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, other: Dur) -> Dur {
        Dur(self.0.saturating_add(other.0))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, other: Dur) {
        *self = *self + other;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, other: Dur) -> Dur {
        self.saturating_sub(other)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, other: Dur) {
        *self = *self - other;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k.max(1))
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_saturates() {
        let a = Dur::from_secs(1);
        let b = Dur::from_secs(3);
        assert_eq!(a - b, Dur::ZERO);
        assert_eq!(b - a, Dur::from_secs(2));
        assert_eq!(Dur::MAX + a, Dur::MAX);
    }

    #[test]
    fn scaling() {
        let d = Dur::from_millis(100);
        assert_eq!(d.mul_f64(2.5), Dur::from_millis(250));
        assert_eq!(d.mul_f64(-1.0), Dur::ZERO);
        assert_eq!(d * 3, Dur::from_millis(300));
        assert_eq!(d / 4, Dur::from_millis(25));
        // Division by zero clamps the divisor to one rather than panicking.
        assert_eq!(d / 0, d);
    }

    #[test]
    fn sum_of_spans() {
        let total: Dur = [1u64, 2, 3].iter().map(|&s| Dur::from_secs(s)).sum();
        assert_eq!(total, Dur::from_secs(6));
    }

    #[test]
    fn min_max() {
        let a = Dur::from_micros(5);
        let b = Dur::from_micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
