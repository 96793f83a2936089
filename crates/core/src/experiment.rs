//! Declarative experiment runner: one config in, one `RunMetrics` out.

use crate::config::Params;
use crate::pipeline::execute;
use dsp_metrics::RunMetrics;
use dsp_sim::FaultPlan;
use dsp_trace::{generate_workload, TraceParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

// The paths downstream code and `crates/benchmark` import these by.
pub use crate::methods::{ClusterProfile, PreemptMethod, SchedMethod};
pub use crate::pipeline::periodic_schedules;

/// A complete experiment description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Cluster inventory.
    pub cluster: ClusterProfile,
    /// Number of jobs `h`.
    pub num_jobs: usize,
    /// Workload seed (same seed ⇒ identical jobs across methods).
    pub seed: u64,
    /// Offline scheduler.
    pub sched: SchedMethod,
    /// Online preemption policy.
    pub preempt: PreemptMethod,
    /// Synthetic-trace parameters.
    pub trace: TraceParams,
    /// Table II parameters.
    pub params: Params,
}

impl ExperimentConfig {
    /// A small, fast default: EC2 profile, DSP offline + online.
    pub fn quick(num_jobs: usize, seed: u64) -> Self {
        ExperimentConfig {
            cluster: ClusterProfile::Ec2,
            num_jobs,
            seed,
            sched: SchedMethod::Dsp,
            preempt: PreemptMethod::Dsp,
            trace: TraceParams { task_scale: 0.02, ..TraceParams::default() },
            params: Params::default(),
        }
    }
}

/// Run one experiment end to end: generate the workload, build periodic
/// offline schedules, simulate with the online policy, return the metrics.
pub fn run_experiment(cfg: &ExperimentConfig) -> RunMetrics {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let jobs = generate_workload(&mut rng, cfg.num_jobs, &cfg.trace);
    let cluster = cfg.cluster.build();
    let mut scheduler = cfg.sched.build(&cfg.params, cfg.seed);
    let mut policy = cfg.preempt.build(&cfg.params);
    let faults = FaultPlan::none();
    execute(&jobs, &cluster, &cfg.params, scheduler.as_mut(), policy.as_mut(), faults).metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_units::Dur;

    #[test]
    fn quick_experiment_completes_all_jobs() {
        let cfg = ExperimentConfig::quick(6, 42);
        let m = run_experiment(&cfg);
        assert_eq!(m.jobs_completed(), 6);
        assert!(m.makespan() > Dur::ZERO);
        assert!(m.tasks_completed > 0);
    }

    #[test]
    fn same_seed_same_metrics() {
        let cfg = ExperimentConfig::quick(5, 7);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_schedulers_share_workload() {
        // Same seed, different methods: all complete the same task count.
        let mut cfg = ExperimentConfig::quick(6, 11);
        cfg.preempt = PreemptMethod::None;
        let mut totals = std::collections::HashSet::new();
        for m in [SchedMethod::Dsp, SchedMethod::TetrisSimDep, SchedMethod::Aalo, SchedMethod::Fifo]
        {
            cfg.sched = m;
            totals.insert(run_experiment(&cfg).tasks_completed);
        }
        assert_eq!(totals.len(), 1, "every method must run the identical workload");
    }

    #[test]
    fn every_preempt_method_terminates() {
        let mut cfg = ExperimentConfig::quick(4, 3);
        for p in PreemptMethod::ALL {
            cfg.preempt = p;
            let m = run_experiment(&cfg);
            assert_eq!(m.jobs_completed(), 4, "{}", p.label());
        }
    }

    #[test]
    fn table_built_dsp_is_the_facade_at_any_gamma() {
        // γ reaches the list scheduler on every path: the registry arm and
        // `DspSystem::run` are the same run at a non-default coefficient.
        let mut cfg = ExperimentConfig::quick(6, 5);
        cfg.params.gamma = 0.9;
        let jobs = generate_workload(&mut StdRng::seed_from_u64(cfg.seed), 6, &cfg.trace);
        let facade = crate::DspSystem::new(cfg.cluster.build(), cfg.params).run(&jobs);
        assert_eq!(run_experiment(&cfg), facade);
    }
}
