//! FIFO baseline: jobs in arrival order, tasks in index order, placed on
//! whichever node frees up first. Dependency-aware only in the minimal
//! sense of not handing out a task before its precedents in the estimated
//! timeline.

use crate::api::Scheduler;
use crate::pack::{pack, Keyed};
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_sim::Schedule;
use dsp_units::Time;

/// First-in-first-out scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        let mut order = Keyed::new(|j, v| (jobs[j].arrival.as_micros(), j, v), |_, _| {});
        pack(jobs, cluster, at, node_avail, &mut order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::schedule_covers_jobs;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    #[test]
    fn fifo_serves_in_arrival_order() {
        let jobs: Vec<Job> = (0..2u32)
            .map(|i| {
                Job::new(
                    JobId(i),
                    JobClass::Small,
                    Time::from_secs(i as u64),
                    Time::MAX,
                    vec![TaskSpec::sized(1000.0); 2],
                    Dag::new(2),
                )
            })
            .collect();
        let cluster = uniform(1, 1000.0, 1);
        let mut f = FifoScheduler;
        let s = f.schedule(&jobs, &cluster, Time::ZERO);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        // Job 0's tasks all start before job 1's.
        let max0 = s.assignments.iter().filter(|a| a.task.job == JobId(0)).map(|a| a.start).max();
        let min1 = s.assignments.iter().filter(|a| a.task.job == JobId(1)).map(|a| a.start).min();
        assert!(max0 < min1);
    }
}
