//! Declarative experiment runner: one config in, one `RunMetrics` out.

use crate::config::Params;
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_metrics::RunMetrics;
use dsp_preempt::{AmoebaPolicy, DspPolicy, NatjamPolicy, SrptPolicy};
use dsp_sched::{
    AaloScheduler, DspIlpScheduler, DspListScheduler, FifoScheduler, RandomScheduler, Scheduler,
    TetrisScheduler,
};
use dsp_sim::{Engine, NoPreempt, PreemptPolicy, Schedule};
use dsp_trace::{generate_workload, TraceParams};
use dsp_units::{Dur, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which cluster inventory to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterProfile {
    /// 50-node "real cluster" (Section V's Palmetto testbed).
    Palmetto,
    /// 30-instance EC2 deployment.
    Ec2,
    /// Heterogeneous blend: Palmetto- and EC2-class nodes interleaved
    /// (the scenario matrix's node-mix axis).
    Blend,
}

impl ClusterProfile {
    /// Materialize the node inventory.
    pub fn build(self) -> ClusterSpec {
        match self {
            ClusterProfile::Palmetto => dsp_cluster::palmetto(),
            ClusterProfile::Ec2 => dsp_cluster::ec2(),
            ClusterProfile::Blend => dsp_cluster::blend(),
        }
    }

    /// Label used in figure series ("real cluster" / "EC2").
    pub fn label(self) -> &'static str {
        match self {
            ClusterProfile::Palmetto => "real cluster",
            ClusterProfile::Ec2 => "EC2",
            ClusterProfile::Blend => "blend",
        }
    }
}

/// Offline scheduling method (Fig. 5's comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMethod {
    /// DSP's practical list scheduler.
    Dsp,
    /// DSP's exact MILP with fallback (small instances only).
    DspIlp,
    /// Tetris without dependency handling.
    TetrisWoDep,
    /// Tetris with simple precedent-first dependency handling.
    TetrisSimDep,
    /// Aalo coflow-style queues.
    Aalo,
    /// FIFO baseline.
    Fifo,
    /// Random placement baseline.
    Random,
}

impl SchedMethod {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            SchedMethod::Dsp => "DSP",
            SchedMethod::DspIlp => "DSP-ILP",
            SchedMethod::TetrisWoDep => "TetrisW/oDep",
            SchedMethod::TetrisSimDep => "TetrisW/SimDep",
            SchedMethod::Aalo => "Aalo",
            SchedMethod::Fifo => "FIFO",
            SchedMethod::Random => "Random",
        }
    }

    /// Does the arm *claim* dependency awareness? Decides whether R2
    /// findings are errors (a broken promise) or warnings (a quantified
    /// design flaw) when the scenario matrix verifies its schedules.
    pub fn dependency_aware(self) -> bool {
        matches!(self, SchedMethod::Dsp | SchedMethod::DspIlp | SchedMethod::TetrisSimDep)
    }

    pub(crate) fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedMethod::Dsp => Box::new(DspListScheduler::default()),
            SchedMethod::DspIlp => Box::new(DspIlpScheduler::default()),
            SchedMethod::TetrisWoDep => Box::new(TetrisScheduler::without_dep()),
            SchedMethod::TetrisSimDep => Box::new(TetrisScheduler::with_simple_dep()),
            SchedMethod::Aalo => Box::new(AaloScheduler::default()),
            SchedMethod::Fifo => Box::new(FifoScheduler),
            SchedMethod::Random => Box::new(RandomScheduler::new(seed)),
        }
    }
}

/// Online preemption method (Fig. 6/7's comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMethod {
    /// No online preemption.
    None,
    /// Full DSP (Algorithm 1 with PP).
    Dsp,
    /// DSP without the PP filter.
    DspWoPp,
    /// Amoeba.
    Amoeba,
    /// Natjam.
    Natjam,
    /// SRPT (no checkpointing).
    Srpt,
}

impl PreemptMethod {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            PreemptMethod::None => "none",
            PreemptMethod::Dsp => "DSP",
            PreemptMethod::DspWoPp => "DSPW/oPP",
            PreemptMethod::Amoeba => "Amoeba",
            PreemptMethod::Natjam => "Natjam",
            PreemptMethod::Srpt => "SRPT",
        }
    }

    pub(crate) fn build(self, params: &Params) -> Box<dyn PreemptPolicy> {
        match self {
            PreemptMethod::None => Box::new(NoPreempt),
            PreemptMethod::Dsp => Box::new(DspPolicy::new(params.dsp_params(true))),
            PreemptMethod::DspWoPp => Box::new(DspPolicy::new(params.dsp_params(false))),
            PreemptMethod::Amoeba => Box::new(AmoebaPolicy),
            PreemptMethod::Natjam => Box::new(NatjamPolicy),
            PreemptMethod::Srpt => Box::new(SrptPolicy {
                alpha: params.alpha,
                beta: params.beta,
                ..SrptPolicy::default()
            }),
        }
    }
}

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

/// Group jobs into scheduling periods and build one schedule batch per
/// period, as Section III prescribes ("executed offline after each unit of
/// time period"). Jobs arriving in period `p` are scheduled at the period's
/// end boundary.
pub fn periodic_schedules(
    jobs: &[Job],
    cluster: &ClusterSpec,
    period: Dur,
    scheduler: &mut dyn Scheduler,
) -> Vec<(Time, Schedule)> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let period_us = period.as_micros().max(1);
    let mut by_period: std::collections::BTreeMap<u64, Vec<Job>> = Default::default();
    for job in jobs {
        by_period.entry(job.arrival.as_micros() / period_us).or_default().push(job.clone());
    }
    // Estimated per-node drain instant of everything scheduled so far —
    // the backlog the next period must plan around (constraint (5)).
    let mut busy_until: Vec<Time> = vec![Time::ZERO; cluster.len()];
    by_period
        .into_iter()
        .map(|(p, batch)| {
            let at = Time::from_micros((p + 1) * period_us);
            let schedule = scheduler.schedule_onto(&batch, cluster, at, &busy_until);
            #[cfg(debug_assertions)]
            {
                let report = dsp_verify::check_coverage(&schedule, &batch, cluster);
                debug_assert!(
                    report.is_clean(),
                    "scheduler broke R1 coverage for the period-{p} batch:\n{report}"
                );
            }
            for a in &schedule.assignments {
                let job = batch.iter().find(|j| j.id == a.task.job).expect("own batch");
                let est = job.task(a.task.index).est_exec_time(cluster.node(a.node).rate());
                let fin = a.start + est;
                let b = &mut busy_until[a.node.idx()];
                *b = (*b).max(fin);
            }
            (at, schedule)
        })
        .collect()
}

/// Run one experiment end to end: generate the workload, build periodic
/// offline schedules, simulate with the online policy, return the metrics.
pub fn run_experiment(cfg: &ExperimentConfig) -> RunMetrics {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let jobs = generate_workload(&mut rng, cfg.num_jobs, &cfg.trace);
    let cluster = cfg.cluster.build();
    let mut scheduler = cfg.sched.build(cfg.seed);
    let batches = periodic_schedules(&jobs, &cluster, cfg.params.sched_period, scheduler.as_mut());
    let mut engine = Engine::new(jobs.clone(), cluster.clone(), cfg.params.engine_config());
    for (at, schedule) in batches {
        engine.add_batch(at, schedule);
    }
    let mut policy = cfg.preempt.build(&cfg.params);
    engine.run(policy.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for p in [
            PreemptMethod::None,
            PreemptMethod::Dsp,
            PreemptMethod::DspWoPp,
            PreemptMethod::Amoeba,
            PreemptMethod::Natjam,
            PreemptMethod::Srpt,
        ] {
            cfg.preempt = p;
            let m = run_experiment(&cfg);
            assert_eq!(m.jobs_completed(), 4, "{}", p.label());
        }
    }

    #[test]
    fn periodic_batches_split_by_arrival() {
        let mut rng = StdRng::seed_from_u64(1);
        let trace = TraceParams { task_scale: 0.02, ..TraceParams::default() };
        // ~3/min over 12 jobs ≈ 4 minutes of arrivals → with 1-minute
        // periods there must be several batches.
        let jobs = generate_workload(&mut rng, 12, &trace);
        let cluster = dsp_cluster::ec2();
        let mut sched = DspListScheduler::default();
        let batches = periodic_schedules(&jobs, &cluster, Dur::from_secs(60), &mut sched);
        assert!(batches.len() > 1);
        let total: usize = batches.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, jobs.iter().map(|j| j.num_tasks()).sum::<usize>());
        // Batch instants are period boundaries strictly after the arrivals
        // they cover.
        for (at, s) in &batches {
            assert_eq!(at.as_micros() % 60_000_000, 0);
            assert!(s.assignments.iter().all(|a| a.start >= *at));
        }
    }

    #[test]
    fn labels_are_paper_spellings() {
        assert_eq!(SchedMethod::TetrisWoDep.label(), "TetrisW/oDep");
        assert_eq!(SchedMethod::TetrisSimDep.label(), "TetrisW/SimDep");
        assert_eq!(PreemptMethod::DspWoPp.label(), "DSPW/oPP");
        assert_eq!(ClusterProfile::Palmetto.label(), "real cluster");
    }
}
