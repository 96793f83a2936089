//! The two cluster inventories of Section V, plus a uniform synthetic one.
//!
//! Machine constants are derived from the paper's hardware description:
//!
//! * **Palmetto** ("real cluster"): 50 Sun X2200 servers with dual AMD
//!   Opteron 2356 (8 cores at 2.3 GHz) and 16 GB RAM.
//! * **EC2**: 30 instances on HP ProLiant ML110 G5 — the paper states the
//!   CPU is 2660 MIPS with 4 GB RAM; the ML110 G5 is a dual-core box.
//!
//! Both profiles give every node 1 GB/s bandwidth and 720 GB disk, as the
//! paper sets. Memory is folded into Eq. 1's `g(k)` with a fixed scale of
//! 190 rate-units per GB, calibrated so the EC2 node comes out at exactly
//! the paper's 2660 MIPS under θ1 = θ2 = 0.5.

use crate::node::{Node, NodeId};
use dsp_units::ResourceVec;

/// Rate-units contributed per GB of memory in Eq. 1 (see module docs).
pub const MEM_UNITS_PER_GB: f64 = 190.0;

/// A named inventory of nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable profile name ("palmetto", "ec2", ...).
    pub name: String,
    /// The nodes.
    pub nodes: Vec<Node>,
}

impl ClusterSpec {
    /// Number of nodes `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total concurrent task slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.nodes.iter().map(|n| n.slots).sum()
    }

    /// Mean node rate — the reference rate used for execution-time
    /// estimates in deadline propagation.
    pub fn mean_rate(&self) -> dsp_units::Mips {
        if self.nodes.is_empty() {
            return dsp_units::Mips::new(0.0);
        }
        let sum: f64 = self.nodes.iter().map(|n| n.rate().get()).sum();
        dsp_units::Mips::new(sum / self.nodes.len() as f64)
    }

    /// Node lookup.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Partition the inventory into `shards` contiguous sub-clusters for
    /// the federated service (DESIGN.md §10.7).
    ///
    /// Nodes are dealt out in index order: the first `len % shards` shards
    /// receive `len / shards + 1` nodes, the rest `len / shards`. Every
    /// shard's nodes are **rebased** to local ids `0..k` so each shard's
    /// `Engine` sees a self-contained cluster; the federation layer maps
    /// them back with the prefix-sum offsets from [`split_offsets`].
    ///
    /// `split(1)` returns the cluster unchanged (single clone), which is
    /// what keeps a 1-shard federation byte-identical to the pre-federation
    /// path. `shards` is clamped to `1..=len` — asking for more shards than
    /// nodes yields `len` single-node shards.
    ///
    /// [`split_offsets`]: ClusterSpec::split_offsets
    pub fn split(&self, shards: usize) -> Vec<ClusterSpec> {
        let shards = shards.clamp(1, self.nodes.len().max(1));
        if shards == 1 {
            return vec![self.clone()];
        }
        let base = self.nodes.len() / shards;
        let extra = self.nodes.len() % shards;
        let mut out = Vec::with_capacity(shards);
        let mut cursor = 0usize;
        for i in 0..shards {
            let take = base + usize::from(i < extra);
            let mut nodes = Vec::with_capacity(take);
            for (local, node) in self.nodes[cursor..cursor + take].iter().enumerate() {
                let mut node = node.clone();
                node.id = NodeId(local as u32);
                nodes.push(node);
            }
            out.push(ClusterSpec { name: format!("{}/shard{i}", self.name), nodes });
            cursor += take;
        }
        out
    }

    /// Global node-id offset of each shard produced by [`split`] with the
    /// same `shards` value: `offsets[i]` added to a shard-local `NodeId`
    /// recovers the id in the unsplit cluster.
    ///
    /// [`split`]: ClusterSpec::split
    pub fn split_offsets(&self, shards: usize) -> Vec<u32> {
        let shards = shards.clamp(1, self.nodes.len().max(1));
        let base = self.nodes.len() / shards;
        let extra = self.nodes.len() % shards;
        let mut offsets = Vec::with_capacity(shards);
        let mut cursor = 0u32;
        for i in 0..shards {
            offsets.push(cursor);
            cursor += (base + usize::from(i < extra)) as u32;
        }
        offsets
    }
}

fn mk_nodes(count: usize, s_cpu: f64, mem_gb: f64, cores: usize) -> Vec<Node> {
    (0..count as u32)
        .map(|i| {
            Node::new(
                NodeId(i),
                s_cpu,
                mem_gb * MEM_UNITS_PER_GB,
                ResourceVec::new(cores as f64, mem_gb, 720_000.0, 1000.0),
                cores,
            )
        })
        .collect()
}

/// The paper's "real cluster": 50 Palmetto nodes (dual Opteron 2356,
/// 16 GB). `g(k) = 0.5·9200 + 0.5·3040 = 6120` rate units. Slots model
/// memory-sized containers (tasks may demand up to a full node's
/// normalized memory), not cores — two concurrent containers per node,
/// like the EC2 profile; Palmetto's edge is its node count and speed.
pub fn palmetto() -> ClusterSpec {
    ClusterSpec { name: "palmetto".into(), nodes: mk_nodes(50, 9200.0, 16.0, 2) }
}

/// The paper's EC2 deployment: 30 instances (2 cores, 2660 MIPS, 4 GB).
/// `g(k) = 0.5·4560 + 0.5·760 = 2660`, matching the paper's stated MIPS.
pub fn ec2() -> ClusterSpec {
    ClusterSpec { name: "ec2".into(), nodes: mk_nodes(30, 4560.0, 4.0, 2) }
}

/// A heterogeneous blend for the scenario matrix: 25 Palmetto-class nodes
/// interleaved with 15 EC2-class nodes (alternating while both last, so
/// neighbouring `NodeId`s differ in speed — the worst case for rate-naive
/// placement). Roughly half of each paper inventory, total 40 nodes.
pub fn blend() -> ClusterSpec {
    let fast = mk_nodes(25, 9200.0, 16.0, 2);
    let slow = mk_nodes(15, 4560.0, 4.0, 2);
    let mut nodes = Vec::with_capacity(fast.len() + slow.len());
    let (mut f, mut s) = (fast.into_iter(), slow.into_iter());
    loop {
        match (f.next(), s.next()) {
            (None, None) => break,
            (a, b) => nodes.extend(a.into_iter().chain(b)),
        }
    }
    for (i, n) in nodes.iter_mut().enumerate() {
        n.id = NodeId(i as u32);
    }
    ClusterSpec { name: "blend".into(), nodes }
}

/// A uniform synthetic cluster for tests: `count` nodes, `rate` split
/// evenly between CPU and memory, `slots` slots each.
pub fn uniform(count: usize, rate: f64, slots: usize) -> ClusterSpec {
    ClusterSpec {
        name: format!("uniform{count}"),
        nodes: (0..count as u32)
            .map(|i| {
                Node::new(
                    NodeId(i),
                    rate,
                    rate,
                    ResourceVec::new(slots as f64, slots as f64, 720_000.0, 1000.0),
                    slots,
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_matches_paper_mips() {
        let c = ec2();
        assert_eq!(c.len(), 30);
        assert!((c.nodes[0].rate().get() - 2660.0).abs() < 1e-9);
        assert_eq!(c.nodes[0].slots, 2);
    }

    #[test]
    fn palmetto_is_bigger_and_faster() {
        let p = palmetto();
        let e = ec2();
        assert_eq!(p.len(), 50);
        assert!(p.nodes[0].rate().get() > e.nodes[0].rate().get());
        assert!(p.total_slots() > e.total_slots());
    }

    #[test]
    fn mean_rate_of_uniform() {
        let c = uniform(4, 1000.0, 2);
        assert_eq!(c.mean_rate().get(), 1000.0);
        assert_eq!(c.total_slots(), 8);
    }

    #[test]
    fn node_lookup() {
        let c = uniform(3, 500.0, 1);
        assert_eq!(c.node(NodeId(2)).id, NodeId(2));
    }

    #[test]
    fn split_one_is_identity() {
        let c = ec2();
        let parts = c.split(1);
        assert_eq!(parts, vec![c]);
    }

    #[test]
    fn split_rebases_ids_and_preserves_inventory() {
        let c = palmetto(); // 50 nodes
        let parts = c.split(4); // 13, 13, 12, 12
        let offsets = c.split_offsets(4);
        assert_eq!(parts.iter().map(ClusterSpec::len).collect::<Vec<_>>(), vec![13, 13, 12, 12]);
        assert_eq!(offsets, vec![0, 13, 26, 38]);
        for (part, off) in parts.iter().zip(&offsets) {
            for (local, node) in part.nodes.iter().enumerate() {
                assert_eq!(node.id, NodeId(local as u32));
                let mut global = node.clone();
                global.id = NodeId(local as u32 + off);
                assert_eq!(&global, c.node(global.id));
            }
        }
        assert_eq!(parts.iter().map(ClusterSpec::total_slots).sum::<usize>(), c.total_slots());
    }

    #[test]
    fn split_clamps_to_node_count() {
        let c = uniform(3, 500.0, 1);
        let parts = c.split(8);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1));
        assert_eq!(c.split_offsets(8), vec![0, 1, 2]);
    }

    #[test]
    fn blend_interleaves_both_inventories() {
        let b = blend();
        assert_eq!(b.len(), 40);
        // Ids are dense and in order.
        for (i, n) in b.nodes.iter().enumerate() {
            assert_eq!(n.id, NodeId(i as u32));
        }
        // Both speed classes present, and the head alternates.
        let fast = b.nodes.iter().filter(|n| n.rate().get() > 5000.0).count();
        assert_eq!(fast, 25);
        assert!(b.nodes[0].rate().get() != b.nodes[1].rate().get());
        // Mean rate sits strictly between the two pure profiles.
        let m = b.mean_rate().get();
        assert!(m > ec2().mean_rate().get() && m < palmetto().mean_rate().get());
    }

    #[test]
    fn empty_cluster_mean_rate_is_zero() {
        let c = ClusterSpec { name: "none".into(), nodes: vec![] };
        assert!(c.is_empty());
        assert_eq!(c.mean_rate().get(), 0.0);
    }
}
