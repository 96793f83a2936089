//! Random-placement baseline: a seeded sanity floor for experiments — any
//! scheduler worth its salt must beat it.

use crate::api::Scheduler;
use crate::pack::{pack, Keyed};
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_sim::Schedule;
use dsp_units::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform-random eligible-task picker.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Seeded constructor; runs are reproducible.
    pub fn new(seed: u64) -> Self {
        RandomScheduler { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &str {
        "Random"
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        // Pre-draw one random key per task; ready tasks are then served in
        // that (uniformly random) order.
        let keys: Vec<Vec<u64>> = jobs
            .iter()
            .map(|j| (0..j.num_tasks()).map(|_| self.rng.gen::<u64>()).collect())
            .collect();
        let mut order = Keyed::new(|j, v: u32| (keys[j][v as usize], j, v), |_, _| {});
        pack(jobs, cluster, at, node_avail, &mut order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::schedule_covers_jobs;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    fn jobs() -> Vec<Job> {
        let mut dag = Dag::new(4);
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 3).unwrap();
        vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(500.0); 4],
            dag,
        )]
    }

    #[test]
    fn covers_and_is_deterministic_per_seed() {
        let jobs = jobs();
        let cluster = uniform(2, 1000.0, 1);
        let a = RandomScheduler::new(9).schedule(&jobs, &cluster, Time::ZERO);
        let b = RandomScheduler::new(9).schedule(&jobs, &cluster, Time::ZERO);
        assert_eq!(a, b);
        assert!(schedule_covers_jobs(&a, &jobs, &cluster));
    }
}
