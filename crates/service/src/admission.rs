//! Admission control: bounded pending queue plus a deadline-feasibility
//! pre-check.
//!
//! The service buffers submissions until the next scheduling-period
//! boundary (Section III schedules "periodically after each unit of time
//! period"). Two gates protect the buffer:
//!
//! 1. **Backpressure** — the pending queue is bounded in *tasks*, not
//!    jobs (a single Large job is ~2000 tasks). When a submission would
//!    overflow the bound, it is rejected with `Backpressure` and the
//!    client is expected to retry after a period boundary.
//! 2. **Feasibility** — a job whose deadline cannot be met even under the
//!    most optimistic placement (scheduled at the next boundary, critical
//!    path executed on the fastest node with zero queueing) is rejected
//!    up front instead of admitted-to-fail. This is deliberately an
//!    *optimistic* bound: it only refuses jobs that are definitely
//!    infeasible, never ones that merely look tight.

use crate::wire::reason;
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_units::Time;
use dsp_verify::bounds::idle_critical_path;
use std::fmt;

/// Admission policy knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum tasks buffered across all pending jobs; submissions that
    /// would exceed this are shed with [`AdmitError::Backpressure`].
    pub max_pending_tasks: usize,
    /// Run the deadline-feasibility pre-check (disable to accept
    /// best-effort jobs that will simply miss).
    pub check_feasibility: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        // 8k tasks ≈ 4 Large jobs in flight — a full period's worth of
        // work for the paper's 30–50 node clusters.
        AdmissionConfig { max_pending_tasks: 8192, check_feasibility: true }
    }
}

/// Why a submission was refused. The wire layer maps each variant to a
/// stable `reason` string clients can branch on.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// Pending queue is full; retry after the next period boundary.
    Backpressure {
        /// Tasks currently buffered.
        pending_tasks: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The job's deadline precedes any possible completion.
    Infeasible {
        /// Offending job's position within the submission batch.
        batch_index: usize,
        /// Earliest completion under the optimistic bound.
        earliest_finish: Time,
        /// The deadline that cannot be met.
        deadline: Time,
    },
    /// The submission failed structural validation (empty batch, empty
    /// job, cyclic DAG, non-monotone ids...).
    Invalid(String),
    /// The service is draining and accepts no new work.
    Draining,
}

impl AdmitError {
    /// Stable machine-readable reason token for the wire protocol.
    pub fn reason(&self) -> &'static str {
        match self {
            AdmitError::Backpressure { .. } => reason::BACKPRESSURE,
            AdmitError::Infeasible { .. } => reason::INFEASIBLE,
            AdmitError::Invalid(_) => reason::INVALID,
            AdmitError::Draining => reason::DRAINING,
        }
    }
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Backpressure { pending_tasks, limit } => write!(
                f,
                "pending queue full ({pending_tasks}/{limit} tasks); retry after the next \
                 scheduling period"
            ),
            AdmitError::Infeasible { batch_index, earliest_finish, deadline } => write!(
                f,
                "job #{batch_index} in batch cannot meet its deadline: earliest possible finish \
                 {:.3}s > deadline {:.3}s",
                earliest_finish.as_secs_f64(),
                deadline.as_secs_f64()
            ),
            AdmitError::Invalid(msg) => write!(f, "invalid submission: {msg}"),
            AdmitError::Draining => write!(f, "service is draining; no new work accepted"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Feasibility gate: `Err(Infeasible)` when the optimistic bound already
/// overshoots the deadline. The bound is the batch scheduled at `boundary`
/// plus the job's critical path at the fastest slot
/// ([`idle_critical_path`]); a cluster without slots finishes nothing.
/// Jobs with the `Time::MAX` "no deadline" sentinel always pass.
pub fn check_feasible(
    jobs: &[Job],
    cluster: &ClusterSpec,
    boundary: Time,
) -> Result<(), AdmitError> {
    for (i, job) in jobs.iter().enumerate() {
        if job.deadline == Time::MAX {
            continue;
        }
        let earliest = idle_critical_path(job, cluster).map_or(Time::MAX, |d| boundary + d);
        if earliest > job.deadline {
            return Err(AdmitError::Infeasible {
                batch_index: i,
                earliest_finish: earliest,
                deadline: job.deadline,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::uniform;
    use dsp_dag::{critical_path_len, Dag, JobClass, JobId, TaskSpec};
    use dsp_trace::{generate_workload, TraceParams};
    use dsp_units::{Dur, Mips};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn chain_job(id: u32, task_mi: f64, n: usize, deadline: Time) -> Job {
        let mut dag = Dag::new(n);
        for v in 1..n as u32 {
            dag.add_edge(v - 1, v).unwrap();
        }
        Job::new(
            JobId(id),
            JobClass::Small,
            Time::ZERO,
            deadline,
            vec![TaskSpec::sized(task_mi); n],
            dag,
        )
    }

    #[test]
    fn feasible_job_passes() {
        // 4-task chain of 1000 MI at 1000 MIPS = 4 s of critical path.
        let cluster = uniform(2, 1000.0, 2);
        let job = chain_job(0, 1000.0, 4, Time::from_secs(60));
        assert!(check_feasible(&[job], &cluster, Time::from_secs(10)).is_ok());
    }

    #[test]
    fn definitely_infeasible_job_is_refused() {
        // Critical path alone is 4 s past the boundary; deadline is 2 s in.
        let cluster = uniform(2, 1000.0, 2);
        let job = chain_job(0, 1000.0, 4, Time::from_secs(2));
        let err = check_feasible(&[job], &cluster, Time::from_secs(10)).unwrap_err();
        match err {
            AdmitError::Infeasible { batch_index, earliest_finish, deadline } => {
                assert_eq!(batch_index, 0);
                assert_eq!(earliest_finish, Time::from_secs(14));
                assert_eq!(deadline, Time::from_secs(2));
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        assert_eq!(err.reason(), "infeasible");
    }

    #[test]
    fn no_deadline_sentinel_always_passes() {
        let cluster = uniform(1, 1.0, 1);
        let job = chain_job(0, 1e12, 3, Time::MAX);
        assert!(check_feasible(&[job], &cluster, Time::from_secs(1)).is_ok());
    }

    #[test]
    fn optimistic_bound_uses_fastest_node() {
        // Heterogeneous cluster: the 4000-rate node sets the bound.
        let mut cluster = uniform(2, 1000.0, 2);
        cluster.nodes[1].s_cpu = 4000.0;
        cluster.nodes[1].s_mem = 4000.0;
        // 2 × 1000 MI at 4000 MIPS = 0.5 s.
        let job = chain_job(0, 1000.0, 2, Time::from_secs(1));
        match check_feasible(&[job], &cluster, Time::from_secs(1)) {
            Err(AdmitError::Infeasible { earliest_finish, .. }) => {
                assert_eq!(earliest_finish, Time::from_secs(1) + Dur::from_millis(500))
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    /// Oracle: the critical path of a-priori estimates at the fastest
    /// node's rate, after `boundary`, written out independently of
    /// `dsp_verify::bounds`.
    fn oracle_finish(job: &Job, cluster: &ClusterSpec, boundary: Time) -> Time {
        let rates = cluster.nodes.iter().map(|n| n.rate());
        let g = rates.max_by(|a, b| a.get().total_cmp(&b.get())).unwrap_or(Mips::new(0.0));
        if g.get() <= 0.0 {
            return Time::MAX;
        }
        boundary + critical_path_len(&job.dag, &job.exec_estimates(g))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Pricing every task once at the fastest slot's rate gives the
        /// per-node-minimum critical path, and the gate refuses exactly
        /// the jobs the oracle refuses, with the same payload, at
        /// boundaries on both sides of each job's last feasible instant.
        #[test]
        fn the_bound_prices_at_the_fastest_slot_and_matches_the_oracle(seed in 0u64..1 << 40, pick in 0usize..4) {
            let name = ["ec2", "palmetto", "blend", "uniform:5:1733.5:3"][pick];
            let cluster = crate::build_cluster(name).expect("a valid cluster");
            let params = TraceParams { task_scale: 0.03, ..TraceParams::default() };
            let jobs = generate_workload(&mut StdRng::seed_from_u64(seed), 6, &params);
            for job in &jobs {
                let cheapest: Vec<Dur> = (0..job.num_tasks() as u32)
                    .map(|v| {
                        let task = job.task(v);
                        let each = cluster.nodes.iter().map(|n| task.est_exec_time(n.rate()));
                        each.min().expect("a node")
                    })
                    .collect();
                let chain = critical_path_len(&job.dag, &cheapest);
                prop_assert_eq!(idle_critical_path(job, &cluster), Some(chain));

                let last = job.deadline.since(Time::ZERO + chain).as_micros();
                for at in [0, last.saturating_sub(1), last, last + 1, job.deadline.as_micros()] {
                    let boundary = Time::from_micros(at);
                    let earliest = oracle_finish(job, &cluster, boundary);
                    let want = if earliest > job.deadline {
                        Err(AdmitError::Infeasible {
                            batch_index: 0,
                            earliest_finish: earliest,
                            deadline: job.deadline,
                        })
                    } else {
                        Ok(())
                    };
                    prop_assert_eq!(check_feasible(std::slice::from_ref(job), &cluster, boundary), want);
                }
            }
        }
    }
}
