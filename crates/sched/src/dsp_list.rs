//! DSP's practical scheduler: dependency-aware list scheduling.
//!
//! Section III's exact ILP is NP-complete; the paper relaxes and rounds for
//! "practical use". This module is that practical arm: a list scheduler
//! whose ranking embodies the two dependency signals the paper leans on —
//!
//! 1. the **upward rank** (critical-path-to-leaf), so the makespan-critical
//!    spine schedules first, and
//! 2. the **Eq. 12 descendant weight** `w(v) = Σ_child (γ+1)·w(child)`
//!    (leaves = 1), so among equal-rank tasks the one unblocking more
//!    dependents goes first — the Fig. 1/Fig. 3 argument;
//! 3. tie-broken by earliest level-propagated deadline.
//!
//! Placement is the crate's one packing loop (`pack`): whenever slots
//! free, the fastest node with a free slot goes to the best-ranked ready
//! task. No node is searched for the task's earliest finish; independent
//! tasks spread across nodes because each takes the next free slot.

use crate::api::Scheduler;
use crate::pack::{pack, Keyed};
use dsp_cluster::ClusterSpec;
use dsp_dag::{deadline::level_deadlines, upward_ranks, Job};
use dsp_sim::Schedule;
use dsp_units::{Dur, Time};
use std::cmp::Reverse;

/// The list scheduler. `gamma` is the Eq. 12 level coefficient (Table II:
/// 0.5).
#[derive(Debug, Clone, Copy)]
pub struct DspListScheduler {
    /// γ ∈ (0,1): weight boosting shallower descendants.
    pub gamma: f64,
}

impl Default for DspListScheduler {
    fn default() -> Self {
        DspListScheduler { gamma: 0.5 }
    }
}

/// Eq. 12 descendant weight with unit leaves.
pub(crate) fn descendant_weights(job: &Job, gamma: f64) -> Vec<f64> {
    let order = job.dag.topo_order();
    let mut w = vec![1.0f64; job.num_tasks()];
    for &v in order.iter().rev() {
        let children = job.dag.children(v);
        if !children.is_empty() {
            w[v as usize] = children.iter().map(|&c| (gamma + 1.0) * w[c as usize]).sum();
        }
    }
    w
}

impl Scheduler for DspListScheduler {
    fn name(&self) -> &str {
        "DSP"
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        if cluster.is_empty() {
            return Schedule::new();
        }
        let mean = cluster.mean_rate();
        // Per-job static ranking: upward rank (critical path to leaf),
        // Eq. 12 descendant weight, level-propagated deadline.
        struct JobInfo {
            rank: Vec<Dur>,
            weight: Vec<f64>,
            deadline: Vec<Time>,
        }
        let infos: Vec<JobInfo> = jobs
            .iter()
            .map(|j| {
                let exec = j.exec_estimates(mean);
                JobInfo {
                    rank: upward_ranks(&j.dag, &exec),
                    weight: descendant_weights(j, self.gamma),
                    deadline: level_deadlines(&j.dag, j.levels(), j.deadline, &exec),
                }
            })
            .collect();
        // Greedy packing realization: whenever a slot frees, hand it the
        // ready task with the greatest (rank, weight, earliest deadline).
        // Emitting the schedule through the same work-conserving process
        // the simulator uses keeps planned starts *achievable* — a tight
        // EFT-timeline plan looks better on paper but inverts priorities
        // the moment actual execution drifts from the estimates.
        let mut order = Keyed::new(
            |j, v: u32| {
                // Ascending key = descending (rank, weight), then earliest
                // deadline.
                (
                    Reverse(infos[j].rank[v as usize].as_micros()),
                    Reverse(infos[j].weight[v as usize].to_bits()),
                    infos[j].deadline[v as usize].as_micros(),
                    j,
                    v,
                )
            },
            |_, _| {},
        );
        pack(jobs, cluster, at, node_avail, &mut order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::schedule_covers_jobs;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    fn job_with(id: u32, n: usize, edges: &[(u32, u32)]) -> Job {
        let mut dag = Dag::new(n);
        for &(u, v) in edges {
            dag.add_edge(u, v).unwrap();
        }
        Job::new(
            JobId(id),
            JobClass::Small,
            Time::ZERO,
            Time::from_secs(3600),
            vec![TaskSpec::sized(1000.0); n],
            dag,
        )
    }

    #[test]
    fn descendant_weights_match_eq12() {
        // Fig. 2 shape: binary tree of depth 2. Leaves 1; mid = 2·1.5 = 3;
        // root = 2·1.5·3 = 9.
        let j = job_with(0, 7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let w = descendant_weights(&j, 0.5);
        assert_eq!(w[3..7], [1.0, 1.0, 1.0, 1.0]);
        assert_eq!(w[1], 3.0);
        assert_eq!(w[2], 3.0);
        assert_eq!(w[0], 9.0);
    }

    #[test]
    fn covers_and_respects_dependencies() {
        let jobs = vec![
            job_with(0, 5, &[(0, 1), (0, 2), (1, 3), (2, 4)]),
            job_with(1, 3, &[(0, 1), (1, 2)]),
        ];
        let cluster = uniform(3, 1000.0, 2);
        let s = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        // Every child's planned start ≥ parent's planned start + exec (1 s
        // on a uniform 1000-rate cluster).
        for (ji, job) in jobs.iter().enumerate() {
            let start = |v: u32| {
                s.assignments
                    .iter()
                    .find(|a| a.task.job == JobId(ji as u32) && a.task.index == v)
                    .unwrap()
                    .start
            };
            for (u, v) in job.dag.edges() {
                assert!(
                    start(v) >= start(u) + Dur::from_secs(1),
                    "edge {u}->{v} of job {ji} violated"
                );
            }
        }
    }

    #[test]
    fn independent_tasks_spread_across_nodes() {
        let jobs = vec![job_with(0, 4, &[])];
        let cluster = uniform(4, 1000.0, 1);
        let s = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        // All four start immediately on distinct nodes.
        assert!(s.assignments.iter().all(|a| a.start == Time::ZERO));
        let nodes: std::collections::HashSet<_> = s.assignments.iter().map(|a| a.node).collect();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn fast_node_preferred() {
        let jobs = vec![job_with(0, 1, &[])];
        let mut cluster = uniform(2, 1000.0, 1);
        cluster.nodes[1].s_cpu = 4000.0;
        cluster.nodes[1].s_mem = 4000.0;
        let s = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        assert_eq!(s.assignments[0].node.idx(), 1);
    }

    #[test]
    fn chain_packs_serially_with_correct_spacing() {
        let jobs = vec![job_with(0, 4, &[(0, 1), (1, 2), (2, 3)])];
        let cluster = uniform(2, 1000.0, 1);
        let s = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        let mut starts: Vec<_> = s.assignments.clone();
        starts.sort_by_key(|a| a.task.index);
        for (i, a) in starts.iter().enumerate() {
            assert_eq!(a.start, Time::from_secs(i as u64));
        }
    }

    #[test]
    fn schedule_starts_at_horizon() {
        let jobs = vec![job_with(0, 2, &[])];
        let cluster = uniform(1, 1000.0, 2);
        let at = Time::from_secs(42);
        let s = DspListScheduler::default().schedule(&jobs, &cluster, at);
        assert!(s.assignments.iter().all(|a| a.start >= at));
    }
}
