//! DAG levelling.
//!
//! The paper's deadline propagation (Section IV-B) and the Fig. 3 priority
//! discussion both speak of the *levels* of a job's DAG: roots sit in level
//! 1 and a task sits one level below its deepest precedent; `L` denotes the
//! total number of levels. We use 0-based levels internally (`0..L`).

use crate::graph::Dag;

/// Level assignment for one job's DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// `level[v]` = longest path length (in edges) from any root to `v`.
    level: Vec<u32>,
    /// Tasks grouped by level: `members[l]` lists the tasks at level `l`.
    members: Vec<Vec<u32>>,
}

impl Levels {
    /// Compute levels for `dag` by longest-path from the roots.
    pub fn compute(dag: &Dag) -> Self {
        let n = dag.len();
        let mut level = vec![0u32; n];
        for v in dag.topo_order() {
            for &c in dag.children(v) {
                let cand = level[v as usize] + 1;
                if cand > level[c as usize] {
                    level[c as usize] = cand;
                }
            }
        }
        let depth = level.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut members = vec![Vec::new(); depth];
        for (v, &l) in level.iter().enumerate() {
            members[l as usize].push(v as u32);
        }
        Levels { level, members }
    }

    /// Level of task `v`, 0-based.
    #[inline]
    pub fn level_of(&self, v: u32) -> u32 {
        self.level[v as usize]
    }

    /// Total number of levels `L` (0 for an empty DAG).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.members.len()
    }

    /// Tasks at level `l`.
    #[inline]
    pub fn members(&self, l: usize) -> &[u32] {
        &self.members[l]
    }

    /// Iterate `(level, members)` pairs from the first (root) level down.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.members.iter().enumerate().map(|(l, m)| (l, m.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        let mut g = Dag::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    #[test]
    fn diamond_levels() {
        let l = Levels::compute(&diamond());
        assert_eq!(l.num_levels(), 3);
        assert_eq!(l.level_of(0), 0);
        assert_eq!(l.level_of(1), 1);
        assert_eq!(l.level_of(2), 1);
        assert_eq!(l.level_of(3), 2);
        assert_eq!(l.members(1), &[1, 2]);
    }

    #[test]
    fn level_is_longest_path_not_shortest() {
        // 0 -> 3 directly, but also 0 -> 1 -> 2 -> 3: task 3 must sit at
        // level 3, else deadline propagation would grant it slack it does
        // not have.
        let mut g = Dag::new(4);
        for (u, v) in [(0, 3), (0, 1), (1, 2), (2, 3)] {
            g.add_edge(u, v).unwrap();
        }
        let l = Levels::compute(&g);
        assert_eq!(l.level_of(3), 3);
        assert_eq!(l.num_levels(), 4);
    }

    #[test]
    fn independent_tasks_single_level() {
        let g = Dag::new(5);
        let l = Levels::compute(&g);
        assert_eq!(l.num_levels(), 1);
        assert_eq!(l.members(0).len(), 5);
    }

    #[test]
    fn empty_dag_has_no_levels() {
        let l = Levels::compute(&Dag::new(0));
        assert_eq!(l.num_levels(), 0);
    }

    #[test]
    fn members_partition_tasks() {
        let l = Levels::compute(&diamond());
        let total: usize = l.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 4);
    }
}
