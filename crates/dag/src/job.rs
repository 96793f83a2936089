//! A job: a DAG of tasks with an arrival time and a deadline.

use crate::graph::Dag;
use crate::ids::{JobId, TaskId};
use crate::levels::Levels;
use crate::task::TaskSpec;
use dsp_units::{Dur, Mips, Time};
use std::sync::Arc;

/// Job size classes from Section V: a large job has 2000 tasks, a medium
/// job 1000 and a small job several hundred; experiments mix the three in
/// equal numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Several hundred tasks.
    Small,
    /// ~1000 tasks.
    Medium,
    /// ~2000 tasks.
    Large,
}

impl JobClass {
    /// Representative task count for the class (the paper's setting).
    pub fn typical_tasks(self) -> usize {
        match self {
            JobClass::Small => 300,
            JobClass::Medium => 1000,
            JobClass::Large => 2000,
        }
    }

    /// Cycle through the classes so that a run has equal numbers of each.
    pub fn round_robin(i: usize) -> JobClass {
        match i % 3 {
            0 => JobClass::Small,
            1 => JobClass::Medium,
            _ => JobClass::Large,
        }
    }
}

/// A job `J_i`: its tasks, dependency DAG, arrival time, and completion
/// deadline `t^d_i`. Levels are computed once at construction because the
/// preemption layer re-reads them every epoch; like the [`Dag`]'s
/// adjacency they sit behind an `Arc`, so a clone copies only the task
/// specs.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Identifier within the experiment run.
    pub id: JobId,
    /// Size class.
    pub class: JobClass,
    /// Submission instant.
    pub arrival: Time,
    /// Completion deadline `t^d_i` (absolute).
    pub deadline: Time,
    /// Task specifications, indexed by local task index.
    pub tasks: Vec<TaskSpec>,
    /// Dependency DAG over the local task indices.
    pub dag: Dag,
    levels: Arc<Levels>,
}

impl Job {
    /// Assemble a job. Panics if `tasks.len() != dag.len()` — the two are
    /// parallel arrays by construction everywhere in this workspace.
    pub fn new(
        id: JobId,
        class: JobClass,
        arrival: Time,
        deadline: Time,
        tasks: Vec<TaskSpec>,
        dag: Dag,
    ) -> Self {
        assert_eq!(tasks.len(), dag.len(), "task list and DAG must agree");
        let levels = Arc::new(Levels::compute(&dag));
        Job { id, class, arrival, deadline, tasks, dag, levels }
    }

    /// Number of tasks `m`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Cached level structure.
    #[inline]
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// Global id of local task `v`.
    #[inline]
    pub fn task_id(&self, v: u32) -> TaskId {
        TaskId { job: self.id, index: v }
    }

    /// Spec of local task `v`.
    #[inline]
    pub fn task(&self, v: u32) -> &TaskSpec {
        &self.tasks[v as usize]
    }

    /// Estimated execution time of every task at reference rate `g` —
    /// the a-priori estimates that deadline propagation and the offline
    /// schedulers use (these may differ from actual execution times; the
    /// online preemption phase compensates).
    pub fn exec_estimates(&self, g: Mips) -> Vec<Dur> {
        self.tasks.iter().map(|t| t.est_exec_time(g)).collect()
    }

    /// Iterate over `(TaskId, &TaskSpec)`.
    pub fn iter_tasks(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks.iter().enumerate().map(|(v, t)| (TaskId { job: self.id, index: v as u32 }, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_job() -> Job {
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(0, 2).unwrap();
        Job::new(
            JobId(4),
            JobClass::Small,
            Time::from_secs(1),
            Time::from_secs(100),
            vec![TaskSpec::sized(100.0), TaskSpec::sized(200.0), TaskSpec::sized(300.0)],
            dag,
        )
    }

    #[test]
    fn construction_caches_levels() {
        let j = mk_job();
        assert_eq!(j.levels().num_levels(), 2);
        assert_eq!(j.num_tasks(), 3);
        assert_eq!(j.task_id(2), TaskId::new(4, 2));
    }

    #[test]
    fn clones_share_graph_and_levels_copy_on_write() {
        let j = mk_job();
        let mut k = j.clone();
        assert!(k.dag.shares_adjacency(&j.dag));
        assert!(Arc::ptr_eq(&k.levels, &j.levels));
        assert_eq!(j, k);
        assert_eq!(k, mk_job(), "a shared clone equals an unshared build");
        k.dag.add_edge(1, 2).unwrap();
        assert!(!k.dag.shares_adjacency(&j.dag));
        assert_ne!(j, k);
        // The original keeps its graph and its levels.
        assert_eq!(j, mk_job());
        assert_eq!(j.dag.edge_count(), 2);
        assert_eq!(j.dag.parents(2), &[0]);
        assert_eq!(j.levels().level_of(2), 1);
        assert_eq!(j.levels().num_levels(), 2);
    }

    #[test]
    #[should_panic(expected = "task list and DAG must agree")]
    fn mismatched_lengths_panic() {
        let dag = Dag::new(2);
        Job::new(JobId(0), JobClass::Small, Time::ZERO, Time::MAX, vec![TaskSpec::sized(1.0)], dag);
    }

    #[test]
    fn exec_estimates_scale_with_rate() {
        let j = mk_job();
        let est = j.exec_estimates(Mips::new(100.0));
        assert_eq!(est[0], Dur::from_secs(1));
        assert_eq!(est[2], Dur::from_secs(3));
    }

    #[test]
    fn class_round_robin_is_balanced() {
        let counts = (0..9).map(JobClass::round_robin).fold([0; 3], |mut acc, c| {
            match c {
                JobClass::Small => acc[0] += 1,
                JobClass::Medium => acc[1] += 1,
                JobClass::Large => acc[2] += 1,
            }
            acc
        });
        assert_eq!(counts, [3, 3, 3]);
    }

    #[test]
    fn typical_tasks_match_paper() {
        assert_eq!(JobClass::Large.typical_tasks(), 2000);
        assert_eq!(JobClass::Medium.typical_tasks(), 1000);
        assert!(JobClass::Small.typical_tasks() < 1000);
    }
}
