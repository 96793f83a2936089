//! Build a dependency DAG from task execution windows — the paper's rule.
//!
//! "In the experiment, we created the dependency relationship among tasks
//! based on their starting time and ending time from the trace. When there
//! is no overlap between the execution times of two tasks of a job, we can
//! create a dependency relationship between the two tasks. We constrained
//! the number of levels in a created dependency DAG within five and the
//! number of dependent tasks on a task within fifteen."

use dsp_dag::Dag;
use dsp_units::Time;

/// Maximum number of levels in a constructed DAG (paper: 5).
pub const MAX_LEVELS: u32 = 5;
/// Maximum dependents per task (paper: 15).
pub const MAX_OUT_DEGREE: usize = 15;
/// Maximum precedents per task; the paper leaves in-degree implicit, we cap
/// it to keep DAGs of the observed shape (a handful of inputs per task).
pub const MAX_IN_DEGREE: usize = 3;

/// Construct a DAG over tasks from their `(start, end)` execution windows.
///
/// An edge `u → v` is eligible when `u`'s window ends no later than `v`'s
/// begins (no overlap, `u` first). Among eligible parents for `v` we prefer
/// the *latest-finishing* ones (the tightest real dependency a trace
/// suggests), subject to the caps. Level bookkeeping is incremental:
/// an edge is skipped when it would push `v` beyond [`MAX_LEVELS`].
pub fn build_dag_from_windows(windows: &[(Time, Time)]) -> Dag {
    let n = windows.len();
    let mut dag = Dag::new(n);
    if n <= 1 {
        return dag;
    }
    // Tasks sorted by start time; we only ever link earlier-ending to
    // later-starting, so processing in start order sees all candidate
    // parents before each child.
    let mut by_start: Vec<u32> = (0..n as u32).collect();
    by_start.sort_by_key(|&v| (windows[v as usize].0, v));
    // Candidate parents sorted by end time (ascending); binary search for
    // those ending ≤ child start, prefer the latest.
    let mut by_end: Vec<u32> = Vec::with_capacity(n);
    let mut level = vec![0u32; n];

    for &v in &by_start {
        let (start_v, _) = windows[v as usize];
        // Partition point: parents with end ≤ start_v.
        let cut = by_end.partition_point(|&u| windows[u as usize].1 <= start_v);
        let mut in_deg = 0usize;
        for &u in by_end[..cut].iter().rev() {
            if in_deg >= MAX_IN_DEGREE {
                break;
            }
            if dag.out_degree(u) >= MAX_OUT_DEGREE {
                continue;
            }
            let new_level = level[u as usize] + 1;
            if new_level >= MAX_LEVELS {
                continue;
            }
            // Windows are consistent with a DAG (u ends before v starts),
            // so insertion cannot cycle; but keep the Result honest.
            if dag.add_edge(u, v).is_ok() {
                in_deg += 1;
                level[v as usize] = level[v as usize].max(new_level);
            }
        }
        // Insert v into by_end keeping end-time order.
        let end_v = windows[v as usize].1;
        let pos = by_end.partition_point(|&u| windows[u as usize].1 <= end_v);
        by_end.insert(pos, v);
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_dag::Levels;

    fn w(s: u64, e: u64) -> (Time, Time) {
        (Time::from_secs(s), Time::from_secs(e))
    }

    #[test]
    fn non_overlapping_windows_create_edges() {
        // Task 0: [0,2), task 1: [3,5) → 0 → 1.
        let dag = build_dag_from_windows(&[w(0, 2), w(3, 5)]);
        assert!(dag.has_edge(0, 1));
        assert!(!dag.has_edge(1, 0));
    }

    #[test]
    fn overlapping_windows_stay_independent() {
        let dag = build_dag_from_windows(&[w(0, 4), w(2, 6)]);
        assert_eq!(dag.edge_count(), 0);
    }

    #[test]
    fn level_cap_respected() {
        // A long chain of disjoint windows would be a 10-level chain; the
        // cap keeps it within 5 levels.
        let windows: Vec<_> = (0..10u64).map(|i| w(i * 2, i * 2 + 1)).collect();
        let dag = build_dag_from_windows(&windows);
        let levels = Levels::compute(&dag);
        assert!(levels.num_levels() <= 5, "levels = {}", levels.num_levels());
        assert!(dag.edge_count() > 0);
    }

    #[test]
    fn out_degree_cap_respected() {
        // One early task followed by 40 disjoint later tasks: out-degree
        // of task 0 must stay ≤ 15.
        let mut windows = vec![w(0, 1)];
        windows.extend((0..40u64).map(|i| w(2 + i, 3 + i)));
        let dag = build_dag_from_windows(&windows);
        for v in 0..windows.len() as u32 {
            assert!(dag.out_degree(v) <= MAX_OUT_DEGREE);
            assert!(dag.in_degree(v) <= MAX_IN_DEGREE);
        }
    }

    #[test]
    fn prefers_latest_finishing_parent() {
        // Parents ending at 1, 2, 3 and 4; child starts at 4. The
        // in-degree cap (3) admits the three latest-finishing parents, the
        // tightest real dependencies, and drops the one ending at 1.
        let windows = vec![w(0, 1), w(0, 2), w(0, 3), w(0, 4), w(4, 5)];
        let dag = build_dag_from_windows(&windows);
        assert_eq!(dag.in_degree(4), MAX_IN_DEGREE);
        assert!(dag.has_edge(1, 4) && dag.has_edge(2, 4) && dag.has_edge(3, 4));
        assert!(!dag.has_edge(0, 4));
    }

    #[test]
    fn stage_structured_windows_yield_layers() {
        // Three stages of three tasks each; stage s runs [s·10, s·10+5).
        let mut windows = Vec::new();
        for s in 0..3u64 {
            for _ in 0..3 {
                windows.push(w(s * 10, s * 10 + 5));
            }
        }
        let dag = build_dag_from_windows(&windows);
        let levels = Levels::compute(&dag);
        assert_eq!(levels.num_levels(), 3);
        // All stage-0 tasks are roots; all stage-2 tasks sit at level 2.
        for v in 0..3u32 {
            assert_eq!(levels.level_of(v), 0);
        }
        for v in 6..9u32 {
            assert_eq!(levels.level_of(v), 2);
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(build_dag_from_windows(&[]).len(), 0);
        assert_eq!(build_dag_from_windows(&[w(0, 1)]).edge_count(), 0);
    }
}
