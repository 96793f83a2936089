//! Declarative experiment runner: one config in, one audited run out.

use crate::config::Params;
use crate::pipeline::{run_audited, Run};
use dsp_sim::{FaultPlan, PreemptPolicy};
use dsp_trace::{generate_workload, TraceParams};
use dsp_verify::Report;
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

/// Run one experiment end to end: generate the workload, then plan, run
/// and audit it ([`run_audited`]).
pub fn run_experiment(cfg: &ExperimentConfig) -> (Run, Report) {
    run_experiment_under(cfg, cfg.preempt.build(&cfg.params).as_mut())
}

/// [`run_experiment`] under `policy` in place of `cfg.preempt`'s (the
/// checkpoint ablation's restarting DSP, which the method table lacks).
pub(crate) fn run_experiment_under(
    cfg: &ExperimentConfig,
    policy: &mut dyn PreemptPolicy,
) -> (Run, Report) {
    let jobs = generate_workload(&mut StdRng::seed_from_u64(cfg.seed), cfg.num_jobs, &cfg.trace);
    let cluster = cfg.cluster.build();
    run_audited(&jobs, &cluster, &cfg.params, cfg.sched, cfg.seed, policy, FaultPlan::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{execute, Plan};
    use dsp_metrics::RunMetrics;
    use dsp_sched::DspListScheduler;
    use dsp_units::Dur;

    /// The run's metrics, once its audit has passed.
    fn metrics(cfg: &ExperimentConfig) -> RunMetrics {
        let (run, report) = run_experiment(cfg);
        assert!(report.passes(), "{report}");
        run.metrics
    }

    #[test]
    fn quick_experiment_completes_all_jobs() {
        let cfg = ExperimentConfig::quick(6, 42);
        let m = metrics(&cfg);
        assert_eq!(m.jobs_completed(), 6);
        assert!(m.makespan() > Dur::ZERO);
        assert!(m.tasks_completed > 0);
    }

    #[test]
    fn same_seed_same_metrics() {
        let cfg = ExperimentConfig::quick(5, 7);
        let a = metrics(&cfg);
        let b = metrics(&cfg);
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
            totals.insert(metrics(&cfg).tasks_completed);
        }
        assert_eq!(totals.len(), 1, "every method must run the identical workload");
    }

    #[test]
    fn every_preempt_method_terminates() {
        let mut cfg = ExperimentConfig::quick(4, 3);
        for p in PreemptMethod::ALL {
            cfg.preempt = p;
            let m = metrics(&cfg);
            assert_eq!(m.jobs_completed(), 4, "{}", p.label());
        }
    }

    #[test]
    fn table_built_dsp_is_the_hand_built_run_at_any_gamma() {
        // γ reaches the list scheduler: the table's arm at a non-default
        // coefficient is `execute` with the list scheduler built by hand.
        let mut cfg = ExperimentConfig::quick(6, 5);
        cfg.params.dsp.gamma = 0.9;
        let jobs = generate_workload(&mut StdRng::seed_from_u64(cfg.seed), 6, &cfg.trace);
        let mut sched = DspListScheduler { gamma: 0.9 };
        let mut policy = cfg.preempt.build(&cfg.params);
        let cluster = cfg.cluster.build();
        let opts = cfg.sched.verify_options();
        let plan = Plan::new(&jobs, &cluster, cfg.params.sched_period, &mut sched, &opts);
        let by_hand =
            execute(&plan, &jobs, &cluster, &cfg.params, policy.as_mut(), FaultPlan::none());
        assert_eq!(metrics(&cfg), by_hand.metrics);
    }
}
