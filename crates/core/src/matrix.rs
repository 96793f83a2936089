//! The scenario-grid evaluation rig behind `dsp matrix`.
//!
//! A *scenario* is one point in the declarative grid of workload axes —
//! execution-time model, arrival pattern, deadline-tightness tier, node
//! mix, failure-storm intensity. Every scheduler arm × preemption policy
//! runs on the *identical* workload of each scenario (same derived seed),
//! so each CSV row is a controlled comparison. Every cell's planned
//! schedule and execution history are audited against the full
//! `dsp-verify` rule set (R1–R6), which makes the matrix a correctness
//! harness as much as an evaluation one.
//!
//! Determinism contract (DESIGN.md §8): the grid iterates `Vec`s in
//! declared order, per-scenario seeds come from a splitmix64 mix of the
//! master seed, and no wall clock or ambient entropy is consulted —
//! repeated runs at one seed are byte-identical, including the CSV.
//!
//! Estimate-vs-truth semantics: matrix workloads pin
//! `estimate_noise_sigma = 0`, so the scheduler's estimate is exactly the
//! declared WCET and the execution-model axis alone controls uncertainty
//! (the exemplar simulators' convention: plan on WCET, execute sampled
//! truth). Under `ExecModel::Wcet` estimate == truth and every arm runs
//! the pre-matrix exact path bit-for-bit — the regression anchor of
//! `tests/uncertainty_prop.rs`.

use crate::config::Params;
use crate::methods::{ClusterProfile, PreemptMethod, SchedMethod};
use crate::pipeline::run_audited;
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_metrics::RunMetrics;
use dsp_sim::{ExecHistory, FaultPlan, Schedule};
use dsp_trace::{generate_workload, ArrivalModel, ExecModel, TraceParams};
use dsp_units::{Dur, Time};
use dsp_verify::{Report, Severity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deadline-tightness tier: the slack multiplier on the critical path in
/// `deadline = arrival + slack × cp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineTier {
    /// 16× critical path — effectively unconstrained.
    Loose,
    /// 8× critical path — the paper's Section V setting.
    Paper,
    /// 3× critical path — queueing delay alone can miss these.
    Tight,
}

impl DeadlineTier {
    /// The slack multiplier.
    pub fn slack(self) -> f64 {
        match self {
            DeadlineTier::Loose => 16.0,
            DeadlineTier::Paper => 8.0,
            DeadlineTier::Tight => 3.0,
        }
    }

    /// Stable CSV label.
    pub fn label(self) -> &'static str {
        match self {
            DeadlineTier::Loose => "loose",
            DeadlineTier::Paper => "paper",
            DeadlineTier::Tight => "tight",
        }
    }
}

/// Failure-storm intensity: a deterministic `FaultPlan` derived from the
/// scenario seed — transient crashes, permanent kills and stragglers over
/// the first simulated minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storm {
    /// No faults (the paper's setting).
    Calm,
    /// ~5% of nodes crash transiently, ~5% straggle at half speed.
    Mild,
    /// ~10% transient crashes, ~5% permanent kills, ~10% stragglers.
    Severe,
}

impl Storm {
    /// Stable CSV label.
    pub fn label(self) -> &'static str {
        match self {
            Storm::Calm => "calm",
            Storm::Mild => "mild",
            Storm::Severe => "severe",
        }
    }

    /// Derive the deterministic fault schedule for one scenario. Fault
    /// instants land in the first simulated eight minutes — inside the
    /// active window of matrix-sized workloads.
    pub fn plan(self, seed: u64, cluster: &ClusterSpec) -> FaultPlan {
        let (crash_frac, kill_frac, straggle_frac, slow) = match self {
            Storm::Calm => return FaultPlan::none(),
            Storm::Mild => (0.05, 0.0, 0.05, 0.5),
            Storm::Severe => (0.10, 0.05, 0.10, 0.35),
        };
        let n = cluster.len();
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0xFA17));
        let mut plan = FaultPlan::none();
        let frac = |f: f64| ((n as f64 * f).ceil() as usize).min(n);
        // One pass of distinct picks per fault kind; overlapping kinds on
        // one node are legal (a straggler can later crash).
        for node in pick_distinct(&mut rng, n, frac(crash_frac)) {
            let at = Time::from_secs(rng.gen_range(60..480));
            let down = Dur::from_secs(rng.gen_range(60..180));
            plan = plan.crash(dsp_cluster::NodeId(node as u32), at, at + down);
        }
        for node in pick_distinct(&mut rng, n, frac(kill_frac)) {
            let at = Time::from_secs(rng.gen_range(120..480));
            plan = plan.kill(dsp_cluster::NodeId(node as u32), at);
        }
        for node in pick_distinct(&mut rng, n, frac(straggle_frac)) {
            let at = Time::from_secs(rng.gen_range(60..480));
            plan = plan.straggle(dsp_cluster::NodeId(node as u32), at, slow);
        }
        plan
    }
}

/// `count` distinct node indices in `0..n`, in ascending order (BTreeSet
/// iteration — no hash-order dependence).
fn pick_distinct<R: Rng>(rng: &mut R, n: usize, count: usize) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    let mut guard = 0usize;
    while seen.len() < count.min(n) && guard < count * 32 + 32 {
        seen.insert(rng.gen_range(0..n));
        guard += 1;
    }
    seen.into_iter().collect()
}

/// One splitmix64 step from `master ^ stream·γ` — the per-scenario seed
/// derivation. Deterministic, stateless, and well-mixed so neighbouring
/// scenario indices don't produce correlated workloads.
pub fn mix_seed(master: u64, stream: u64) -> u64 {
    rand::splitmix64(&mut (master ^ stream.wrapping_mul(rand::GOLDEN_GAMMA)))
}

/// One point of the workload grid (everything except the method arms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Execution-time model (truth vs declared WCET).
    pub exec_model: ExecModel,
    /// Arrival pattern.
    pub arrival: ArrivalModel,
    /// Deadline-tightness tier.
    pub deadline: DeadlineTier,
    /// Node inventory.
    pub node_mix: ClusterProfile,
    /// Failure-storm intensity.
    pub storm: Storm,
}

/// The declarative grid: scenario axes × method arms.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixConfig {
    /// Offline scheduler arms.
    pub schedulers: Vec<SchedMethod>,
    /// Online preemption arms.
    pub preempts: Vec<PreemptMethod>,
    /// Execution-time models.
    pub exec_models: Vec<ExecModel>,
    /// Arrival patterns.
    pub arrivals: Vec<ArrivalModel>,
    /// Deadline tiers.
    pub deadlines: Vec<DeadlineTier>,
    /// Node inventories.
    pub node_mixes: Vec<ClusterProfile>,
    /// Failure storms.
    pub storms: Vec<Storm>,
    /// Jobs per scenario workload.
    pub num_jobs: usize,
    /// Master seed; every scenario derives its own via [`mix_seed`].
    pub seed: u64,
    /// Per-class task-count scale of the synthetic trace.
    pub task_scale: f64,
    /// Table II parameters shared by every cell.
    pub params: Params,
}

impl MatrixConfig {
    /// The full paper-grade arm set over a reduced scenario grid — what
    /// `dsp matrix --quick` runs: 4 schedulers × 3 preemption policies ×
    /// 2 execution models × 2 arrival patterns × 2 deadline tiers
    /// (96 cells, small traces).
    pub fn quick(seed: u64) -> Self {
        MatrixConfig {
            schedulers: vec![
                SchedMethod::DspIlp,
                SchedMethod::Dsp,
                SchedMethod::TetrisSimDep,
                SchedMethod::Aalo,
            ],
            preempts: vec![PreemptMethod::Dsp, PreemptMethod::Srpt, PreemptMethod::Natjam],
            exec_models: vec![ExecModel::Wcet, ExecModel::HalfRandom],
            arrivals: vec![
                ArrivalModel::Poisson,
                ArrivalModel::Bursty { burst_factor: 4.0, burst_secs: 60.0, gap_secs: 180.0 },
            ],
            deadlines: vec![DeadlineTier::Paper, DeadlineTier::Tight],
            node_mixes: vec![ClusterProfile::Ec2],
            storms: vec![Storm::Calm],
            num_jobs: 6,
            seed,
            task_scale: 0.02,
            params: Params::default(),
        }
    }

    /// The minimal CI smoke grid: 2 schedulers × 2 preemption policies ×
    /// 2 execution models on one scenario column (8 cells).
    pub fn smoke(seed: u64) -> Self {
        MatrixConfig {
            schedulers: vec![SchedMethod::Dsp, SchedMethod::TetrisSimDep],
            preempts: vec![PreemptMethod::Dsp, PreemptMethod::Srpt],
            exec_models: vec![ExecModel::Wcet, ExecModel::HalfRandom],
            arrivals: vec![ArrivalModel::Poisson],
            deadlines: vec![DeadlineTier::Paper],
            node_mixes: vec![ClusterProfile::Ec2],
            storms: vec![Storm::Calm],
            num_jobs: 5,
            seed,
            task_scale: 0.02,
            params: Params::default(),
        }
    }

    /// Every axis fully populated. Hundreds of cells — an overnight run,
    /// not a smoke test; prefer [`MatrixConfig::quick`] interactively.
    pub fn full(seed: u64) -> Self {
        MatrixConfig {
            schedulers: vec![
                SchedMethod::DspIlp,
                SchedMethod::Dsp,
                SchedMethod::TetrisSimDep,
                SchedMethod::Aalo,
            ],
            preempts: vec![PreemptMethod::Dsp, PreemptMethod::Srpt, PreemptMethod::Natjam],
            exec_models: vec![
                ExecModel::Wcet,
                ExecModel::FullRandom,
                ExecModel::HalfRandom,
                ExecModel::Normal { sigma_frac: 0.2 },
            ],
            arrivals: vec![
                ArrivalModel::Poisson,
                ArrivalModel::Diurnal { amplitude: 0.8, period_secs: 1800.0 },
                ArrivalModel::Bursty { burst_factor: 4.0, burst_secs: 60.0, gap_secs: 180.0 },
            ],
            deadlines: vec![DeadlineTier::Loose, DeadlineTier::Paper, DeadlineTier::Tight],
            node_mixes: vec![ClusterProfile::Palmetto, ClusterProfile::Ec2, ClusterProfile::Blend],
            storms: vec![Storm::Calm, Storm::Mild, Storm::Severe],
            num_jobs: 12,
            seed,
            task_scale: 0.02,
            params: Params::default(),
        }
    }

    /// The scenario axes in iteration order (exec model outermost, storm
    /// innermost), paired with their derived workload seeds.
    pub fn scenarios(&self) -> Vec<(u64, Scenario)> {
        let mut out = Vec::new();
        let mut idx = 0u64;
        for &exec_model in &self.exec_models {
            for &arrival in &self.arrivals {
                for &deadline in &self.deadlines {
                    for &node_mix in &self.node_mixes {
                        for &storm in &self.storms {
                            out.push((
                                mix_seed(self.seed, idx),
                                Scenario { exec_model, arrival, deadline, node_mix, storm },
                            ));
                            idx += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Total cell count: scenarios × scheduler arms × preemption arms.
    pub fn num_cells(&self) -> usize {
        self.exec_models.len()
            * self.arrivals.len()
            * self.deadlines.len()
            * self.node_mixes.len()
            * self.storms.len()
            * self.schedulers.len()
            * self.preempts.len()
    }

    /// Trace parameters of one scenario. `estimate_noise_sigma` is pinned
    /// to zero: estimates are exactly the declared WCETs, so the execution
    /// model alone controls the estimate-vs-truth gap (see module docs).
    pub fn trace_for(&self, s: &Scenario) -> TraceParams {
        TraceParams {
            task_scale: self.task_scale,
            estimate_noise_sigma: 0.0,
            exec_model: s.exec_model,
            arrival: s.arrival,
            deadline_slack: s.deadline.slack(),
            ..TraceParams::default()
        }
    }
}

/// One finished cell: the row plus everything an artifact writer needs.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// Scenario index in [`MatrixConfig::scenarios`] order.
    pub scenario_idx: usize,
    /// The scenario.
    pub scenario: Scenario,
    /// Offline scheduler arm.
    pub sched: SchedMethod,
    /// Online preemption arm.
    pub preempt: PreemptMethod,
    /// The scenario's workload (shared by all arms of the scenario).
    pub jobs: Vec<Job>,
    /// The node inventory the cell ran on.
    pub cluster: ClusterSpec,
    /// All period batches merged, in batch order.
    pub schedule: Schedule,
    /// Per-task execution accounting.
    pub history: ExecHistory,
    /// Headline metrics.
    pub metrics: RunMetrics,
    /// The R1–R6 audit of this cell.
    pub report: Report,
}

impl CellOutput {
    /// `scenario/arm` identifier, stable across runs: used for artifact
    /// file names and the CSV `cell` column.
    pub fn cell_id(&self) -> String {
        format!(
            "s{:03}-{}-{}-{}-{}-{}-{}-{}",
            self.scenario_idx,
            self.scenario.exec_model.label(),
            self.scenario.arrival.label(),
            self.scenario.deadline.label(),
            self.scenario.node_mix.name(),
            self.scenario.storm.label(),
            self.sched.name(),
            self.preempt.name(),
        )
    }

    /// The CSV row (no trailing newline); columns per [`csv_header`].
    pub fn csv_row(&self) -> String {
        let m = &self.metrics;
        let errors = self.report.diagnostics.iter().filter(|d| d.severity == Severity::Error);
        let warnings = self.report.diagnostics.iter().filter(|d| d.severity == Severity::Warning);
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.6},{:.3},{:.3},{:.6},{},{},{},{},{:.3},{},{},{},{},{}",
            self.cell_id(),
            self.scenario_idx,
            self.scenario.exec_model.label(),
            self.scenario.arrival.label(),
            self.scenario.deadline.label(),
            self.scenario.node_mix.name(),
            self.scenario.storm.label(),
            self.sched.name(),
            self.preempt.name(),
            self.jobs.len(),
            m.tasks_completed,
            m.makespan().as_millis_f64(),
            m.throughput_tasks_per_ms(),
            m.avg_job_waiting().as_millis_f64(),
            m.wait_percentile(95.0).as_millis_f64(),
            m.deadline_hit_rate(),
            m.preemptions,
            m.preemption_attempts(),
            m.disorders,
            m.refusals,
            m.switch_overhead.as_millis_f64(),
            m.node_failures,
            m.fault_rescheduled,
            errors.count(),
            warnings.count(),
            if self.report.passes() { "pass" } else { "FAIL" },
        )
    }
}

/// The CSV header row (no trailing newline).
pub fn csv_header() -> &'static str {
    "cell,scenario,exec_model,arrival,deadline,nodes,storm,sched,preempt,\
     jobs,tasks,makespan_ms,throughput_tasks_per_ms,avg_wait_ms,p95_wait_ms,\
     deadline_hit_rate,preemptions,preempt_attempts,disorders,refusals,\
     overhead_ms,node_failures,fault_rescheduled,verify_errors,verify_warnings,verdict"
}

/// Run the whole grid in scenario-major order, handing each finished cell
/// to `sink` (artifact writers stream cells to disk instead of holding the
/// grid in memory). Returns all CSV rows in emission order.
pub fn run_matrix(cfg: &MatrixConfig, mut sink: impl FnMut(&CellOutput)) -> Vec<String> {
    let mut rows = Vec::with_capacity(cfg.num_cells());
    for (scenario_idx, (scenario_seed, scenario)) in cfg.scenarios().into_iter().enumerate() {
        let trace = cfg.trace_for(&scenario);
        let mut rng = StdRng::seed_from_u64(scenario_seed);
        let jobs = generate_workload(&mut rng, cfg.num_jobs, &trace);
        let cluster = scenario.node_mix.build();
        for &sched in &cfg.schedulers {
            for &preempt in &cfg.preempts {
                let mut policy = preempt.build(&cfg.params);
                let faults = scenario.storm.plan(scenario_seed, &cluster);
                let (run, report) = run_audited(
                    &jobs,
                    &cluster,
                    &cfg.params,
                    sched,
                    scenario_seed,
                    policy.as_mut(),
                    faults,
                );
                let cell = CellOutput {
                    scenario_idx,
                    scenario,
                    sched,
                    preempt,
                    jobs: jobs.clone(),
                    cluster: cluster.clone(),
                    schedule: run.schedule,
                    history: run.history,
                    metrics: run.metrics,
                    report,
                };
                rows.push(cell.csv_row());
                sink(&cell);
            }
        }
    }
    rows
}

/// Render header + rows as one CSV document (trailing newline included).
pub fn to_csv(rows: &[String]) -> String {
    let mut out = String::with_capacity(rows.iter().map(|r| r.len() + 1).sum::<usize>() + 256);
    out.push_str(csv_header());
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_runs_and_verifies() {
        let cfg = MatrixConfig::smoke(42);
        assert_eq!(cfg.num_cells(), 8);
        let mut cells = 0usize;
        let rows = run_matrix(&cfg, |cell| {
            cells += 1;
            assert!(
                cell.report.passes(),
                "cell {} failed verification:\n{}",
                cell.cell_id(),
                cell.report
            );
            assert_eq!(cell.metrics.jobs_completed(), cfg.num_jobs, "{}", cell.cell_id());
        });
        assert_eq!(cells, 8);
        assert_eq!(rows.len(), 8);
    }

    /// Per-cell seeds are part of every committed matrix artifact; the
    /// literals were computed from the formula before it moved into
    /// `rand::splitmix64`.
    #[test]
    fn mix_seed_is_pinned() {
        assert_eq!(mix_seed(2018, 0xFA17), 13451614752015712157);
        assert_eq!(mix_seed(2018, 0), 17469628489348102290);
        assert_eq!(mix_seed(2018, 1), 6006595685656429626);
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let cfg = MatrixConfig::smoke(7);
        let a = run_matrix(&cfg, |_| {});
        let b = run_matrix(&cfg, |_| {});
        assert_eq!(to_csv(&a), to_csv(&b));
    }

    #[test]
    fn arms_share_the_scenario_workload() {
        // Within one scenario, every arm must see identical jobs.
        let cfg = MatrixConfig::smoke(3);
        let mut sizes = std::collections::BTreeSet::new();
        run_matrix(&cfg, |cell| {
            if cell.scenario_idx == 0 {
                let total: f64 =
                    cell.jobs.iter().flat_map(|j| j.iter_tasks().map(|(_, t)| t.size.get())).sum();
                sizes.insert(total.to_bits());
            }
        });
        assert_eq!(sizes.len(), 1);
    }

    #[test]
    fn scenario_seeds_differ() {
        let cfg = MatrixConfig::quick(1);
        let seeds: std::collections::BTreeSet<u64> =
            cfg.scenarios().iter().map(|(s, _)| *s).collect();
        assert_eq!(seeds.len(), cfg.scenarios().len());
    }

    #[test]
    fn storm_plans_are_seeded_and_scaled() {
        let c = dsp_cluster::ec2();
        assert!(Storm::Calm.plan(5, &c).is_empty());
        let a = Storm::Mild.plan(5, &c);
        let b = Storm::Mild.plan(5, &c);
        assert_eq!(a, b, "storm plans must be deterministic");
        assert!(!a.is_empty());
        let severe = Storm::Severe.plan(5, &c);
        assert!(severe.faults.len() > a.faults.len());
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let cols = csv_header().split(',').count();
        let cfg = MatrixConfig::smoke(2);
        let rows = run_matrix(&cfg, |_| {});
        for r in &rows {
            assert_eq!(r.split(',').count(), cols, "row: {r}");
        }
    }
}
