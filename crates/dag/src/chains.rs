//! Chain decomposition (`C_i^q` in Section III).
//!
//! The ILP formulation expresses dependencies along *chains of tasks*: each
//! chain is a path in the DAG along which tasks must run strictly one after
//! another, and `C_i` is the set of chains covering job `J_i`. We provide
//! both a greedy **path cover** (every task on exactly one chain — compact,
//! what the ILP constraint generator uses) and exhaustive **maximal path
//! enumeration** (every root→leaf path — used by tests and the critical-path
//! analysis).

use crate::graph::Dag;

/// A set of chains over one job's DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSet {
    chains: Vec<Vec<u32>>,
}

impl ChainSet {
    /// Greedy path cover: repeatedly walk from an uncovered task with no
    /// uncovered parent down through uncovered children. Every task appears
    /// in exactly one chain; consecutive chain elements are DAG edges.
    pub fn path_cover(dag: &Dag) -> Self {
        let n = dag.len();
        let mut covered = vec![false; n];
        let mut chains = Vec::new();
        // Walk tasks in topological order so chain heads are always
        // uncovered tasks whose parents are already covered.
        for start in dag.topo_order() {
            if covered[start as usize] {
                continue;
            }
            let mut chain = vec![start];
            covered[start as usize] = true;
            let mut cur = start;
            // Extend downward through the first uncovered child.
            loop {
                let next = dag.children(cur).iter().copied().find(|&c| !covered[c as usize]);
                match next {
                    Some(c) => {
                        covered[c as usize] = true;
                        chain.push(c);
                        cur = c;
                    }
                    None => break,
                }
            }
            chains.push(chain);
        }
        ChainSet { chains }
    }

    /// Every maximal root→leaf path. Exponential in pathological DAGs, so
    /// `limit` caps the number of paths returned (the paper caps DAG depth
    /// at 5 and out-degree at 15, keeping real instances tame).
    pub fn maximal_paths(dag: &Dag, limit: usize) -> Self {
        let mut chains = Vec::new();
        let mut stack = Vec::new();
        for root in dag.roots() {
            Self::dfs_paths(dag, root, &mut stack, &mut chains, limit);
            if chains.len() >= limit {
                break;
            }
        }
        ChainSet { chains }
    }

    fn dfs_paths(dag: &Dag, v: u32, stack: &mut Vec<u32>, out: &mut Vec<Vec<u32>>, limit: usize) {
        if out.len() >= limit {
            return;
        }
        stack.push(v);
        if dag.out_degree(v) == 0 {
            out.push(stack.clone());
        } else {
            for &c in dag.children(v) {
                Self::dfs_paths(dag, c, stack, out, limit);
                if out.len() >= limit {
                    break;
                }
            }
        }
        stack.pop();
    }

    /// The chains.
    #[inline]
    pub fn chains(&self) -> &[Vec<u32>] {
        &self.chains
    }

    /// Number of chains (`|C_i|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// True when there are no chains.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Length of the longest chain.
    pub fn max_len(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Check that every consecutive pair in every chain is a DAG edge.
    pub fn is_valid_for(&self, dag: &Dag) -> bool {
        self.chains.iter().all(|c| c.windows(2).all(|w| dag.has_edge(w[0], w[1])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Dag {
        let mut g = Dag::new(7);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    #[test]
    fn path_cover_covers_every_task_once() {
        let g = fig2();
        let cs = ChainSet::path_cover(&g);
        let mut seen = vec![0usize; g.len()];
        for chain in cs.chains() {
            for &v in chain {
                seen[v as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "cover must partition tasks: {seen:?}");
        assert!(cs.is_valid_for(&g));
    }

    #[test]
    fn maximal_paths_of_fig2() {
        let g = fig2();
        let cs = ChainSet::maximal_paths(&g, 100);
        // Four root→leaf paths: 0-1-3, 0-1-4, 0-2-5, 0-2-6.
        assert_eq!(cs.len(), 4);
        assert_eq!(cs.max_len(), 3);
        assert!(cs.is_valid_for(&g));
    }

    #[test]
    fn maximal_paths_respects_limit() {
        let g = fig2();
        let cs = ChainSet::maximal_paths(&g, 2);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn independent_tasks_are_singleton_chains() {
        let g = Dag::new(3);
        let cs = ChainSet::path_cover(&g);
        assert_eq!(cs.len(), 3);
        assert!(cs.chains().iter().all(|c| c.len() == 1));
    }

    #[test]
    fn chain_dag_is_one_chain() {
        let mut g = Dag::new(5);
        for i in 0..4 {
            g.add_edge(i, i + 1).unwrap();
        }
        let cs = ChainSet::path_cover(&g);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.chains()[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_dag_yields_empty_set() {
        let cs = ChainSet::path_cover(&Dag::new(0));
        assert!(cs.is_empty());
        assert_eq!(cs.max_len(), 0);
    }
}
