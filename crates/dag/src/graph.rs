//! Directed acyclic graph over a job's tasks.
//!
//! Tasks are addressed by their local index `0..n` within the job. Edges
//! point from a precedent task to its dependent ("child") task: an edge
//! `u -> v` means `v` cannot start until `u` has finished.

use std::collections::VecDeque;

/// Error returned when an edge insertion would break the DAG property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagError {
    /// The edge's endpoints are not `< n`.
    OutOfBounds { from: u32, to: u32, n: u32 },
    /// A self-loop was requested.
    SelfLoop(u32),
    /// The edge would create a cycle.
    WouldCycle { from: u32, to: u32 },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::OutOfBounds { from, to, n } => {
                write!(f, "edge {from}->{to} out of bounds for {n} tasks")
            }
            DagError::SelfLoop(v) => write!(f, "self-loop on task {v}"),
            DagError::WouldCycle { from, to } => {
                write!(f, "edge {from}->{to} would create a cycle")
            }
        }
    }
}

impl std::error::Error for DagError {}

/// Adjacency-list DAG with O(1) child/parent access and cycle-safe edge
/// insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    children: Vec<Vec<u32>>,
    parents: Vec<Vec<u32>>,
    edges: usize,
}

impl Dag {
    /// An edgeless DAG over `n` tasks.
    pub fn new(n: usize) -> Self {
        Dag { children: vec![Vec::new(); n], parents: vec![Vec::new(); n], edges: 0 }
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the DAG has no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Dependent tasks of `v` (the set `S_ij` of Eq. 12).
    #[inline]
    pub fn children(&self, v: u32) -> &[u32] {
        &self.children[v as usize]
    }

    /// Precedent tasks of `v`.
    #[inline]
    pub fn parents(&self, v: u32) -> &[u32] {
        &self.parents[v as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: u32) -> usize {
        self.children[v as usize].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: u32) -> usize {
        self.parents[v as usize].len()
    }

    /// Tasks with no precedents — runnable at job start.
    pub fn roots(&self) -> Vec<u32> {
        (0..self.len() as u32).filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Tasks with no dependents.
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.len() as u32).filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// True when an edge `from -> to` already exists.
    pub fn has_edge(&self, from: u32, to: u32) -> bool {
        self.children[from as usize].contains(&to)
    }

    /// Insert the dependency edge `from -> to`, rejecting duplicates
    /// silently and cycles with an error.
    pub fn add_edge(&mut self, from: u32, to: u32) -> Result<(), DagError> {
        let n = self.len() as u32;
        if from >= n || to >= n {
            return Err(DagError::OutOfBounds { from, to, n });
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        if self.has_edge(from, to) {
            return Ok(());
        }
        // The edge creates a cycle iff `from` is reachable from `to`, which
        // a childless `to` (every edge a generator adds) cannot reach.
        if !self.children[to as usize].is_empty() && self.reaches(to, from) {
            return Err(DagError::WouldCycle { from, to });
        }
        self.children[from as usize].push(to);
        self.parents[to as usize].push(from);
        self.edges += 1;
        Ok(())
    }

    /// BFS reachability: is `target` reachable from `start` along edges?
    pub fn reaches(&self, start: u32, target: u32) -> bool {
        if start == target {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([start]);
        seen[start as usize] = true;
        while let Some(v) = queue.pop_front() {
            for &c in self.children(v) {
                if c == target {
                    return true;
                }
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    queue.push_back(c);
                }
            }
        }
        false
    }

    /// True when task `a` transitively depends on task `b` (i.e. `b` is an
    /// ancestor of `a`). This is Condition C2 of the preemption procedure:
    /// a waiting task must not preempt a running task it depends on.
    pub fn depends_on(&self, a: u32, b: u32) -> bool {
        a != b && self.reaches(b, a)
    }

    /// Kahn topological order. The graph is maintained acyclic by
    /// construction, so this always covers every task.
    pub fn topo_order(&self) -> Vec<u32> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n as u32).map(|v| self.in_degree(v)).collect();
        let mut queue: VecDeque<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in self.children(v) {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    queue.push_back(c);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "graph contained a cycle");
        order
    }

    /// Number of transitive descendants of every task (not counting the
    /// task itself). A task with many descendants unblocks many tasks —
    /// the quantity the Fig. 1/Fig. 3 discussion keys on.
    pub fn descendant_counts(&self) -> Vec<usize> {
        let n = self.len();
        let order = self.topo_order();
        // Reverse topological order with bitsets would be exact; for the
        // sizes here (m ≤ 2000) a per-task BFS is O(n·e) worst case but the
        // paper caps depth at 5 and out-degree at 15, keeping this cheap.
        let mut counts = vec![0usize; n];
        let mut seen = vec![u32::MAX; n];
        for (stamp, &v) in order.iter().enumerate() {
            let stamp = stamp as u32;
            let mut queue = VecDeque::from_iter(self.children(v).iter().copied());
            let mut cnt = 0usize;
            for &c in self.children(v) {
                seen[c as usize] = stamp;
            }
            while let Some(u) = queue.pop_front() {
                cnt += 1;
                for &c in self.children(u) {
                    if seen[c as usize] != stamp {
                        seen[c as usize] = stamp;
                        queue.push_back(c);
                    }
                }
            }
            counts[v as usize] = cnt;
        }
        counts
    }

    /// Iterate over all edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.children.iter().enumerate().flat_map(|(u, cs)| cs.iter().map(move |&c| (u as u32, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// `add_edge`'s verdict by the rule without the childless shortcut:
    /// a BFS for every edge that passes the cheap checks.
    fn add_edge_always_bfs(g: &mut Dag, from: u32, to: u32) -> Result<(), DagError> {
        let n = g.len() as u32;
        if from >= n || to >= n {
            return Err(DagError::OutOfBounds { from, to, n });
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        if g.has_edge(from, to) {
            return Ok(());
        }
        if g.reaches(to, from) {
            return Err(DagError::WouldCycle { from, to });
        }
        g.children[from as usize].push(to);
        g.parents[to as usize].push(from);
        g.edges += 1;
        Ok(())
    }

    #[test]
    fn add_edge_agrees_with_a_bfs_for_every_edge() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(110);
        let mut seen = [0usize; 5];
        for _ in 0..400 {
            let n = rng.gen_range(1..12u32);
            let (mut fast, mut slow) = (Dag::new(n as usize), Dag::new(n as usize));
            for _ in 0..40 {
                // Endpoints one past the end now and then: out of bounds.
                let (from, to) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
                let duplicate = from < n && to < n && fast.has_edge(from, to);
                let verdict = fast.add_edge(from, to);
                assert_eq!(verdict, add_edge_always_bfs(&mut slow, from, to), "{from}->{to}");
                assert_eq!(fast, slow);
                seen[match verdict {
                    Ok(()) if duplicate => 1,
                    Ok(()) => 0,
                    Err(DagError::SelfLoop(_)) => 2,
                    Err(DagError::OutOfBounds { .. }) => 3,
                    Err(DagError::WouldCycle { .. }) => 4,
                }] += 1;
            }
        }
        assert!(seen.iter().all(|&k| k > 50), "every verdict drawn often: {seen:?}");
    }

    /// The Fig. 2 example: T2,T3 depend on T1; T4,T5 on T2; T6,T7 on T3.
    /// (0-indexed: task k here is paper's T_{k+1}.)
    pub(crate) fn fig2() -> Dag {
        let mut g = Dag::new(7);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    #[test]
    fn roots_and_leaves() {
        let g = fig2();
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.leaves(), vec![3, 4, 5, 6]);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn cycle_rejected() {
        let mut g = fig2();
        assert_eq!(g.add_edge(3, 0), Err(DagError::WouldCycle { from: 3, to: 0 }));
        assert_eq!(g.add_edge(2, 2), Err(DagError::SelfLoop(2)));
        assert!(matches!(g.add_edge(0, 99), Err(DagError::OutOfBounds { .. })));
        // Graph unchanged by the failed inserts.
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = fig2();
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn depends_on_is_transitive_and_irreflexive() {
        let g = fig2();
        assert!(g.depends_on(3, 1)); // T4 depends on T2
        assert!(g.depends_on(3, 0)); // ... and transitively on T1
        assert!(!g.depends_on(3, 2)); // but not on T3
        assert!(!g.depends_on(0, 3)); // ancestor does not depend on child
        assert!(!g.depends_on(3, 3));
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = fig2();
        let order = g.topo_order();
        assert_eq!(order.len(), 7);
        let pos: Vec<usize> =
            (0..7u32).map(|v| order.iter().position(|&x| x == v).unwrap()).collect();
        for (u, v) in g.edges() {
            assert!(pos[u as usize] < pos[v as usize], "{u} must precede {v}");
        }
    }

    #[test]
    fn descendant_counts_match_fig2() {
        let g = fig2();
        let c = g.descendant_counts();
        assert_eq!(c, vec![6, 2, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn diamond_descendants_not_double_counted() {
        let mut g = Dag::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v).unwrap();
        }
        assert_eq!(g.descendant_counts()[0], 3);
    }

    #[test]
    fn empty_graph() {
        let g = Dag::new(0);
        assert!(g.is_empty());
        assert!(g.topo_order().is_empty());
        assert!(g.roots().is_empty());
    }
}
