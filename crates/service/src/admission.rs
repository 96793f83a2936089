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
use dsp_cluster::{ClusterSpec, Node};
use dsp_dag::{critical_path_len, Job};
use dsp_units::{Dur, Mips, Time};
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

/// The fastest node's rate — the optimistic-execution reference.
fn fastest_rate(cluster: &ClusterSpec) -> Mips {
    cluster
        .nodes
        .iter()
        .map(Node::rate)
        .max_by(|a, b| a.get().total_cmp(&b.get()))
        .unwrap_or(Mips::new(0.0))
}

/// Earliest instant `job` could possibly finish if its batch is scheduled
/// at `boundary`: the critical path of a-priori estimates executed
/// back-to-back on the fastest node. Every real schedule finishes at or
/// after this.
pub fn optimistic_finish(job: &Job, cluster: &ClusterSpec, boundary: Time) -> Time {
    let g = fastest_rate(cluster);
    if g.get() <= 0.0 {
        return Time::MAX;
    }
    let est: Vec<Dur> = job.exec_estimates(g);
    boundary + critical_path_len(&job.dag, &est)
}

/// Feasibility gate: `Err(Infeasible)` when the optimistic bound already
/// overshoots the deadline. Jobs with the `Time::MAX` "no deadline"
/// sentinel always pass.
pub fn check_feasible(
    jobs: &[Job],
    cluster: &ClusterSpec,
    boundary: Time,
) -> Result<(), AdmitError> {
    for (i, job) in jobs.iter().enumerate() {
        if job.deadline == Time::MAX {
            continue;
        }
        let earliest = optimistic_finish(job, cluster, boundary);
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
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

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
        let job = chain_job(0, 1000.0, 2, Time::MAX);
        // 2 × 1000 MI at 4000 MIPS = 0.5 s.
        assert_eq!(
            optimistic_finish(&job, &cluster, Time::from_secs(1)),
            Time::from_secs(1) + Dur::from_millis(500)
        );
    }
}
