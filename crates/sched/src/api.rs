//! The offline-scheduler interface.

use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_sim::Schedule;
use dsp_units::Time;

/// An offline scheduler: invoked once per scheduling period over the jobs
/// submitted in that period (Section III runs this "periodically after each
/// unit of time period").
pub trait Scheduler {
    /// Method name as the paper's figures label it.
    fn name(&self) -> &str;

    /// Produce the batch schedule. `at` is the instant the schedule takes
    /// effect (the period boundary); planned starting times are ≥ `at`.
    /// `node_avail[k]` is the estimated instant node `k` finishes the work
    /// already queued on it from earlier scheduling periods (empty: an idle
    /// cluster). The paper's ILP models exactly this through constraint (5)
    /// ("when `T_ij` is already running and `T_uv` is a newly assigned
    /// task"); schedulers that ignore it plan fantasy timetables against an
    /// empty cluster.
    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule;

    /// [`Scheduler::schedule_onto`] an idle cluster.
    fn schedule(&mut self, jobs: &[Job], cluster: &ClusterSpec, at: Time) -> Schedule {
        self.schedule_onto(jobs, cluster, at, &[])
    }
}

/// Every task of every job appears exactly once and lands on a real node —
/// the invariant each scheduler must uphold; exposed for tests.
///
/// Thin boolean wrapper over `dsp-verify`'s R1 coverage rule
/// ([`dsp_verify::check_coverage`]), which is the single source of truth
/// and reports *which* assignment is wrong when this returns `false`.
pub fn schedule_covers_jobs(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec) -> bool {
    dsp_verify::check_coverage(s, jobs, cluster).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::{uniform, NodeId};
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    fn job() -> Job {
        Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1.0), TaskSpec::sized(1.0)],
            Dag::new(2),
        )
    }

    #[test]
    fn coverage_checker_detects_problems() {
        let jobs = vec![job()];
        let cluster = uniform(2, 100.0, 1);
        let mut s = Schedule::new();
        s.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        assert!(!schedule_covers_jobs(&s, &jobs, &cluster)); // missing task
        s.assign(jobs[0].task_id(1), NodeId(5), Time::ZERO);
        assert!(!schedule_covers_jobs(&s, &jobs, &cluster)); // bad node
        let mut ok = Schedule::new();
        ok.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        ok.assign(jobs[0].task_id(1), NodeId(1), Time::ZERO);
        assert!(schedule_covers_jobs(&ok, &jobs, &cluster));
        // Duplicate assignment.
        let mut dup = Schedule::new();
        dup.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        dup.assign(jobs[0].task_id(0), NodeId(1), Time::ZERO);
        assert!(!schedule_covers_jobs(&dup, &jobs, &cluster));
    }
}
