//! Four-dimensional resource vectors (CPU, memory, disk, network bandwidth).
//!
//! Tetris \[7\] packs tasks by the dot product of a task's peak demand with a
//! machine's available resource vector; the experiment setup in Section V
//! draws CPU/memory from trace-like distributions and fixes disk and
//! bandwidth per task. `ResourceVec` is shared by task demands (dsp-dag) and
//! node capacities (dsp-cluster).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A vector of the four resource dimensions the paper's evaluation tracks.
///
/// All components are non-negative; subtraction saturates at zero
/// component-wise (a machine cannot owe resources).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVec {
    /// CPU size (`s_cpu` in the paper) — trace-normalized CPU units.
    pub cpu: f64,
    /// Memory size (`s_mem`) — trace-normalized memory units.
    pub mem: f64,
    /// Disk footprint in MB (the paper fixes 0.02 MB per task).
    pub disk: f64,
    /// Network bandwidth in MB/s (the paper fixes 0.02 MB/s per task).
    pub bw: f64,
}

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec { cpu: 0.0, mem: 0.0, disk: 0.0, bw: 0.0 };

    /// Construct a vector, clamping each component to be finite and
    /// non-negative.
    pub fn new(cpu: f64, mem: f64, disk: f64, bw: f64) -> Self {
        fn c(x: f64) -> f64 {
            if x.is_finite() && x > 0.0 {
                x
            } else {
                0.0
            }
        }
        ResourceVec { cpu: c(cpu), mem: c(mem), disk: c(disk), bw: c(bw) }
    }

    /// CPU-and-memory-only vector; disk/bw zero.
    pub fn cpu_mem(cpu: f64, mem: f64) -> Self {
        Self::new(cpu, mem, 0.0, 0.0)
    }

    /// True when every component of `self` fits within `capacity`.
    pub fn fits_in(&self, capacity: &ResourceVec) -> bool {
        self.cpu <= capacity.cpu
            && self.mem <= capacity.mem
            && self.disk <= capacity.disk
            && self.bw <= capacity.bw
    }

    /// Tetris's alignment score: the dot product of a demand with an
    /// availability vector. Higher means the task uses the machine's spare
    /// capacity more fully.
    pub fn dot(&self, other: &ResourceVec) -> f64 {
        self.cpu * other.cpu + self.mem * other.mem + self.disk * other.disk + self.bw * other.bw
    }

    /// Scale every component by a non-negative factor.
    pub fn scale(&self, k: f64) -> ResourceVec {
        ResourceVec::new(self.cpu * k, self.mem * k, self.disk * k, self.bw * k)
    }

    /// L1 norm — the total resource mass, used by Amoeba-style
    /// "most resources" orderings.
    pub fn l1(&self) -> f64 {
        self.cpu + self.mem + self.disk + self.bw
    }

    /// True when all components are zero.
    pub fn is_zero(&self) -> bool {
        self.l1() == 0.0
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, o: ResourceVec) -> ResourceVec {
        ResourceVec::new(self.cpu + o.cpu, self.mem + o.mem, self.disk + o.disk, self.bw + o.bw)
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, o: ResourceVec) {
        *self = *self + o;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, o: ResourceVec) -> ResourceVec {
        ResourceVec::new(self.cpu - o.cpu, self.mem - o.mem, self.disk - o.disk, self.bw - o.bw)
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, o: ResourceVec) {
        *self = *self - o;
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu {:.2}, mem {:.2}, disk {:.3}MB, bw {:.3}MB/s]",
            self.cpu, self.mem, self.disk, self.bw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_component_wise() {
        let cap = ResourceVec::new(4.0, 8.0, 1.0, 1.0);
        assert!(ResourceVec::new(4.0, 8.0, 1.0, 1.0).fits_in(&cap));
        assert!(ResourceVec::new(1.0, 1.0, 0.0, 0.0).fits_in(&cap));
        assert!(!ResourceVec::new(4.1, 0.0, 0.0, 0.0).fits_in(&cap));
        assert!(!ResourceVec::new(0.0, 0.0, 0.0, 1.5).fits_in(&cap));
    }

    #[test]
    fn dot_product_matches_tetris_score() {
        let avail = ResourceVec::new(2.0, 3.0, 0.0, 0.0);
        let demand = ResourceVec::new(1.0, 2.0, 0.0, 0.0);
        assert_eq!(demand.dot(&avail), 2.0 + 6.0);
    }

    #[test]
    fn subtraction_saturates_per_component() {
        let a = ResourceVec::new(1.0, 5.0, 0.0, 0.0);
        let b = ResourceVec::new(2.0, 1.0, 0.0, 0.0);
        let d = a - b;
        assert_eq!(d.cpu, 0.0);
        assert_eq!(d.mem, 4.0);
    }

    #[test]
    fn constructor_clamps() {
        let v = ResourceVec::new(-1.0, f64::NAN, f64::INFINITY, 3.0);
        assert_eq!(v.cpu, 0.0);
        assert_eq!(v.mem, 0.0);
        assert_eq!(v.disk, 0.0);
        assert_eq!(v.bw, 3.0);
    }

    #[test]
    fn l1_and_zero() {
        assert!(ResourceVec::ZERO.is_zero());
        assert_eq!(ResourceVec::new(1.0, 2.0, 3.0, 4.0).l1(), 10.0);
    }
}
