//! Task sizes (MI) and node processing rates (MIPS), Eq. 1–2 of the paper.

use crate::duration::Dur;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A task size in millions of instructions (`l_ij` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Mi(f64);

impl Mi {
    /// Zero work.
    pub const ZERO: Mi = Mi(0.0);

    /// Construct from a raw MI count. Negative and non-finite inputs clamp
    /// to zero — a task cannot have negative work.
    #[inline]
    pub fn new(mi: f64) -> Self {
        if !mi.is_finite() || mi < 0.0 {
            Mi(0.0)
        } else {
            Mi(mi)
        }
    }

    /// Raw MI value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Execution time of this much work on a node of rate `g` (Eq. 2:
    /// `t = l / g(k)`). A zero-rate node yields [`Dur::MAX`] — the task
    /// never finishes there, which placement logic treats as infeasible.
    #[inline]
    pub fn exec_time(self, g: Mips) -> Dur {
        if g.get() <= 0.0 {
            return Dur::MAX;
        }
        Dur::from_secs_f64(self.0 / g.get())
    }

    /// Work completed by a node of rate `g` in span `d`.
    #[inline]
    pub fn done_in(g: Mips, d: Dur) -> Mi {
        Mi::new(g.get() * d.as_secs_f64())
    }
}

impl Add for Mi {
    type Output = Mi;
    #[inline]
    fn add(self, o: Mi) -> Mi {
        Mi::new(self.0 + o.0)
    }
}

impl AddAssign for Mi {
    #[inline]
    fn add_assign(&mut self, o: Mi) {
        *self = *self + o;
    }
}

impl Sub for Mi {
    type Output = Mi;
    #[inline]
    fn sub(self, o: Mi) -> Mi {
        Mi::new(self.0 - o.0)
    }
}

impl Mul<f64> for Mi {
    type Output = Mi;
    #[inline]
    fn mul(self, k: f64) -> Mi {
        Mi::new(self.0 * k)
    }
}

impl fmt::Display for Mi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MI", self.0)
    }
}

/// A node processing rate in millions of instructions per second
/// (`g(k)` in the paper, Eq. 1: `g(k) = θ1·s_cpu + θ2·s_mem`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Mips(f64);

impl Mips {
    /// Construct from a raw MIPS figure. Negative and non-finite inputs
    /// clamp to zero.
    #[inline]
    pub fn new(mips: f64) -> Self {
        if !mips.is_finite() || mips < 0.0 {
            Mips(0.0)
        } else {
            Mips(mips)
        }
    }

    /// Eq. 1 of the paper: the processing-rate function of a node with CPU
    /// size `s_cpu` and memory size `s_mem`, weighted by `θ1`/`θ2`.
    #[inline]
    pub fn from_node_sizes(theta1: f64, s_cpu: f64, theta2: f64, s_mem: f64) -> Self {
        Mips::new(theta1 * s_cpu + theta2 * s_mem)
    }

    /// Raw MIPS value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Mips {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MIPS", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping() {
        assert_eq!(Mi::new(-5.0).get(), 0.0);
        assert_eq!(Mi::new(f64::NAN).get(), 0.0);
        assert_eq!(Mips::new(-1.0).get(), 0.0);
    }

    #[test]
    fn eq1_rate_function() {
        // Table II: θ1 = θ2 = 0.5. A node with 4000 CPU and 2000 mem units
        // has rate 3000 MIPS.
        let g = Mips::from_node_sizes(0.5, 4000.0, 0.5, 2000.0);
        assert_eq!(g.get(), 3000.0);
    }

    #[test]
    fn zero_rate_is_infeasible() {
        assert_eq!(Mi::new(100.0).exec_time(Mips::new(0.0)), Dur::MAX);
    }

    #[test]
    fn work_done_roundtrip() {
        let g = Mips::new(1234.0);
        let l = Mi::new(617.0);
        let t = l.exec_time(g);
        let done = Mi::done_in(g, t);
        assert!((done.get() - l.get()).abs() < 0.01, "{done} vs {l}");
    }

    #[test]
    fn mi_arithmetic_floors_at_zero() {
        let a = Mi::new(10.0);
        let b = Mi::new(25.0);
        assert_eq!((a - b).get(), 0.0);
        assert_eq!((a + b).get(), 35.0);
        assert_eq!((a * 2.0).get(), 20.0);
    }
}
