//! A single compute node.

use dsp_units::{Mips, ResourceVec};
use std::fmt;

/// Identifier of a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Usize index for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A compute node `k`: its raw CPU/memory sizes (feeding the Eq. 1 rate
/// function), its resource capacity vector for packing, and the number of
/// task slots it can run concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Identifier.
    pub id: NodeId,
    /// CPU size `s^k_cpu` (MIPS-scale units).
    pub s_cpu: f64,
    /// Memory size `s^k_mem` (MIPS-equivalent units per Eq. 1's weighting).
    pub s_mem: f64,
    /// Packing capacity: what Tetris-style schedulers pack demands into.
    pub capacity: ResourceVec,
    /// Concurrent task slots. A node allocated more tasks than slots queues
    /// the excess (Section I).
    pub slots: usize,
    /// θ1 weight for CPU in Eq. 1.
    pub theta1: f64,
    /// θ2 weight for memory in Eq. 1.
    pub theta2: f64,
}

impl Node {
    /// Construct a node with the Table II default weights θ1 = θ2 = 0.5.
    pub fn new(id: NodeId, s_cpu: f64, s_mem: f64, capacity: ResourceVec, slots: usize) -> Self {
        Node { id, s_cpu, s_mem, capacity, slots: slots.max(1), theta1: 0.5, theta2: 0.5 }
    }

    /// The node's processing rate `g(k)` (Eq. 1).
    #[inline]
    pub fn rate(&self) -> Mips {
        Mips::from_node_sizes(self.theta1, self.s_cpu, self.theta2, self.s_mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_eq1() {
        let n = Node::new(NodeId(0), 4000.0, 2000.0, ResourceVec::cpu_mem(8.0, 16.0), 4);
        assert_eq!(n.rate(), Mips::new(3000.0));
    }

    #[test]
    fn slots_floor_at_one() {
        let n = Node::new(NodeId(0), 1.0, 1.0, ResourceVec::cpu_mem(1.0, 1.0), 0);
        assert_eq!(n.slots, 1);
    }

    #[test]
    fn custom_weights_change_rate() {
        let mut n = Node::new(NodeId(1), 1000.0, 500.0, ResourceVec::ZERO, 2);
        n.theta1 = 1.0;
        n.theta2 = 0.0;
        assert_eq!(n.rate(), Mips::new(1000.0));
    }
}
