//! Aalo \[11\]: efficient coflow scheduling without prior knowledge.
//!
//! Following the paper's adaptation — "we consider a job as a coflow and
//! the task as the flows in the coflow" — jobs live in K priority queues
//! separated by exponentially-growing thresholds on the work the job has
//! *already received* (discretized serve-in-finish-time-order without prior
//! knowledge); within a queue, jobs are served FIFO by arrival. All flows
//! of a coflow stay in the same queue, which is how Aalo "satisfies the
//! dependency constraint": we additionally only hand out tasks whose
//! precedents have finished, matching Aalo's flow-ordering semantics.
//! Aalo does not consider deadlines.

use crate::api::Scheduler;
use crate::pack::{pack, Keyed};
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_sim::Schedule;
use dsp_units::Time;

/// The Aalo-style scheduler.
#[derive(Debug, Clone, Copy)]
pub struct AaloScheduler {
    /// Number of priority queues (Aalo's default-ish K).
    pub num_queues: usize,
    /// First queue threshold in MI of served work; queue q admits jobs with
    /// served work < `first_threshold · growth^q`.
    pub first_threshold_mi: f64,
    /// Threshold growth factor between consecutive queues (Aalo uses
    /// exponential spacing; 10 is its canonical value).
    pub growth: f64,
}

impl Default for AaloScheduler {
    fn default() -> Self {
        AaloScheduler { num_queues: 8, first_threshold_mi: 2_000.0, growth: 10.0 }
    }
}

impl AaloScheduler {
    /// Queue index for a job that has received `served_mi` of service.
    fn queue_of(&self, served_mi: f64) -> usize {
        let mut bound = self.first_threshold_mi;
        for q in 0..self.num_queues - 1 {
            if served_mi < bound {
                return q;
            }
            bound *= self.growth;
        }
        self.num_queues - 1
    }
}

impl Scheduler for AaloScheduler {
    fn name(&self) -> &str {
        "Aalo"
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        // Served work per batch job, updated as the estimated timeline
        // schedules tasks (scheduled == will be served). Highest-priority
        // (lowest-index) queue first; FIFO by arrival inside a queue;
        // within a job, any ready task (flows of a coflow are
        // interchangeable to the coordinator). Service keys only decay
        // (queue demotion), which is exactly what `Keyed`'s lazy
        // revalidation supports.
        let served_mi = std::cell::RefCell::new(vec![0.0f64; jobs.len()]);
        let this = *self;
        let mut order = Keyed::new(
            |j, v| {
                let q = this.queue_of(served_mi.borrow()[j]);
                (q, jobs[j].arrival.as_micros(), j, v)
            },
            |j, v| {
                // Plan on the a-priori estimate, not the sampled truth —
                // the coordinator can only ever observe declared sizes.
                served_mi.borrow_mut()[j] += jobs[j].task(v).est_size.get();
            },
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
    use dsp_units::Dur;

    fn job(id: u32, arrival_s: u64, sizes: &[f64]) -> Job {
        Job::new(
            JobId(id),
            JobClass::Small,
            Time::from_secs(arrival_s),
            Time::MAX,
            sizes.iter().map(|&s| TaskSpec::sized(s)).collect(),
            Dag::new(sizes.len()),
        )
    }

    #[test]
    fn queue_thresholds_grow_exponentially() {
        let a = AaloScheduler::default();
        assert_eq!(a.queue_of(0.0), 0);
        assert_eq!(a.queue_of(1_999.0), 0);
        assert_eq!(a.queue_of(2_000.0), 1);
        assert_eq!(a.queue_of(20_000.0), 2);
        assert_eq!(a.queue_of(1e18), a.num_queues - 1);
    }

    #[test]
    fn covers_all_tasks() {
        let jobs = vec![job(0, 0, &[1000.0; 5]), job(1, 1, &[2000.0; 3])];
        let cluster = uniform(2, 1000.0, 2);
        let s = AaloScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
    }

    #[test]
    fn small_job_overtakes_heavy_one() {
        // A huge job 0 (arrived first) accumulates service and drops to a
        // lower-priority queue; the small job 1 then gets served ahead of
        // job 0's tail despite the later arrival.
        let heavy = job(0, 0, &[3000.0; 10]);
        let light = job(1, 10, &[500.0; 2]);
        let jobs = vec![heavy, light];
        let cluster = uniform(1, 1000.0, 1);
        let s = AaloScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        let light_last =
            s.assignments.iter().filter(|a| a.task.job == JobId(1)).map(|a| a.start).max().unwrap();
        let heavy_last =
            s.assignments.iter().filter(|a| a.task.job == JobId(0)).map(|a| a.start).max().unwrap();
        assert!(
            light_last + Dur::from_secs(1) < heavy_last,
            "light {light_last} should finish queueing well before heavy {heavy_last}"
        );
    }

    #[test]
    fn dependencies_respected_in_estimated_timeline() {
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let j = Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); 2],
            dag,
        );
        let jobs = [j];
        let cluster = uniform(2, 1000.0, 1);
        let s = AaloScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        let t0 = s.assignments.iter().find(|a| a.task.index == 0).unwrap().start;
        let t1 = s.assignments.iter().find(|a| a.task.index == 1).unwrap().start;
        assert!(t1 >= t0 + Dur::from_secs(1));
    }
}
