//! Per-level task deadlines (Section IV-B).
//!
//! The job's deadline `t^d_i` is pushed backwards through the DAG levels:
//! tasks in the last level inherit the job deadline, and tasks in level `l`
//! get `t^d_i − Σ_{k=l+1..L} max_j t_ijk` — the job deadline minus the
//! worst-case execution time of every deeper level. A task's *allowable
//! waiting time* `t^a = t^d_task − t^rem` is taken from these deadlines by
//! `dsp_sim::TaskSnapshot::allowable_wait`.

use crate::graph::Dag;
use crate::levels::Levels;
use dsp_units::{Dur, Time};

/// Deadline of every task, derived from the job deadline by the per-level
/// rule above.
///
/// * `job_deadline` — `t^d_i`, an absolute instant;
/// * `exec` — estimated execution time of each task (`t_ijk` with the
///   node-heterogeneity folded into the estimate; callers use the mean
///   cluster rate).
///
/// Returns one absolute deadline per task. Deadlines saturate at zero when
/// the job deadline is infeasibly tight — the task is then "already urgent".
pub fn level_deadlines(dag: &Dag, levels: &Levels, job_deadline: Time, exec: &[Dur]) -> Vec<Time> {
    debug_assert_eq!(exec.len(), dag.len());
    let num = levels.num_levels();
    if num == 0 {
        return Vec::new();
    }
    // Worst-case execution time of each level: max_j t_ijk.
    let mut level_max = vec![Dur::ZERO; num];
    for (l, members) in levels.iter() {
        level_max[l] = members.iter().map(|&v| exec[v as usize]).max().unwrap_or(Dur::ZERO);
    }
    // Suffix sums: tail[l] = Σ_{k=l+1..L} level_max[k].
    let mut tail = vec![Dur::ZERO; num];
    for l in (0..num.saturating_sub(1)).rev() {
        tail[l] = tail[l + 1] + level_max[l + 1];
    }
    (0..dag.len() as u32).map(|v| job_deadline - tail[levels.level_of(v) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> (Dag, Levels) {
        let mut g = Dag::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let l = Levels::compute(&g);
        (g, l)
    }

    #[test]
    fn chain_deadlines_shift_by_deeper_levels() {
        let (g, l) = chain3();
        let exec = [Dur::from_secs(2), Dur::from_secs(3), Dur::from_secs(5)];
        let dls = level_deadlines(&g, &l, Time::from_secs(20), &exec);
        // Last level keeps the job deadline; level 1 loses level 2's 5s;
        // level 0 loses 5s + 3s.
        assert_eq!(dls[2], Time::from_secs(20));
        assert_eq!(dls[1], Time::from_secs(15));
        assert_eq!(dls[0], Time::from_secs(12));
    }

    #[test]
    fn parallel_level_uses_max_exec() {
        let mut g = Dag::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        let l = Levels::compute(&g);
        let exec = [Dur::from_secs(1), Dur::from_secs(2), Dur::from_secs(7)];
        let dls = level_deadlines(&g, &l, Time::from_secs(10), &exec);
        // Level 1 worst case is 7s, so the root must finish by t=3.
        assert_eq!(dls[0], Time::from_secs(3));
        assert_eq!(dls[1], Time::from_secs(10));
        assert_eq!(dls[2], Time::from_secs(10));
    }

    #[test]
    fn infeasible_deadline_saturates() {
        let (g, l) = chain3();
        let exec = [Dur::from_secs(100); 3];
        let dls = level_deadlines(&g, &l, Time::from_secs(10), &exec);
        assert_eq!(dls[0], Time::ZERO);
    }

    #[test]
    fn empty_dag_no_deadlines() {
        let g = Dag::new(0);
        let l = Levels::compute(&g);
        assert!(level_deadlines(&g, &l, Time::from_secs(1), &[]).is_empty());
    }
}
