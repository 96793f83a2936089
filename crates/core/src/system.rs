//! The `DspSystem` façade: offline phase + online phase over your own jobs.

use crate::config::Params;
use crate::methods::{PreemptMethod, SchedMethod};
use crate::pipeline::execute;
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_metrics::RunMetrics;
use dsp_sched::Scheduler;
use dsp_sim::PreemptPolicy;

/// The assembled DSP system: give it a cluster and Table II parameters,
/// feed it jobs, get measured execution back.
///
/// The offline phase runs every [`Params::sched_period`] over the jobs that
/// arrived in that period; the online phase re-evaluates priorities and
/// preempts every [`Params::epoch`].
#[derive(Debug, Clone)]
pub struct DspSystem {
    /// Node inventory.
    pub cluster: ClusterSpec,
    /// Table II parameters.
    pub params: Params,
}

impl DspSystem {
    /// Assemble a system.
    pub fn new(cluster: ClusterSpec, params: Params) -> Self {
        DspSystem { cluster, params }
    }

    /// Run the full DSP pipeline (list scheduler offline, Algorithm 1 with
    /// PP online) over `jobs`. Jobs must be sorted by strictly increasing
    /// `JobId`; the ids themselves are arbitrary (a long-running service
    /// hands them out across batches). `dsp_trace::generate_workload`
    /// produces a conforming list.
    pub fn run(&self, jobs: &[Job]) -> RunMetrics {
        let mut sched = SchedMethod::Dsp.build(&self.params, 0);
        let mut policy = PreemptMethod::Dsp.build(&self.params);
        self.run_with_faults(jobs, sched.as_mut(), policy.as_mut(), dsp_sim::FaultPlan::none())
    }

    /// Run with a custom offline scheduler and online policy under a
    /// deterministic fault schedule (node crashes, stragglers; or
    /// `FaultPlan::none()`) — the paper's future-work scenario, usable for
    /// failure-injection experiments.
    pub fn run_with_faults(
        &self,
        jobs: &[Job],
        scheduler: &mut dyn Scheduler,
        policy: &mut dyn PreemptPolicy,
        faults: dsp_sim::FaultPlan,
    ) -> RunMetrics {
        execute(jobs, &self.cluster, &self.params, scheduler, policy, faults).metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_preempt::SrptPolicy;
    use dsp_sched::FifoScheduler;
    use dsp_trace::{generate_workload, TraceParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(n: usize) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(5);
        generate_workload(&mut rng, n, &TraceParams { task_scale: 0.02, ..TraceParams::default() })
    }

    #[test]
    fn facade_runs_dsp_end_to_end() {
        let sys = DspSystem::new(dsp_cluster::ec2(), Params::default());
        let jobs = workload(5);
        let m = sys.run(&jobs);
        assert_eq!(m.jobs_completed(), 5);
        assert_eq!(m.disorders, 0, "DSP never violates dependency order");
    }

    #[test]
    fn sparse_job_ids_run_end_to_end() {
        // The service assigns ids across batches, so `jobs[i].id` need not
        // equal `JobId(i)` — only monotonicity is required. Renumber a
        // workload onto ids 3, 10, 11, ... and everything must still run.
        let sys = DspSystem::new(dsp_cluster::ec2(), Params::default());
        let dense = workload(4);
        let sparse: Vec<Job> = dense
            .iter()
            .zip([3u32, 10, 11, 40])
            .map(|(j, id)| {
                let mut j = j.clone();
                j.id = dsp_dag::JobId(id);
                j
            })
            .collect();
        let a = sys.run(&dense);
        let b = sys.run(&sparse);
        assert_eq!(b.jobs_completed(), 4);
        // Ids are labels, not indices: the renumbered run is identical.
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn custom_methods_slot_in() {
        let sys = DspSystem::new(dsp_cluster::ec2(), Params::default());
        let jobs = workload(4);
        let mut sched = FifoScheduler;
        let mut pol = SrptPolicy::default();
        let m = sys.run_with_faults(&jobs, &mut sched, &mut pol, dsp_sim::FaultPlan::none());
        assert_eq!(m.jobs_completed(), 4);
    }
}
