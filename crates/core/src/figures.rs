//! Every figure of the paper's evaluation (Fig. 5–8) and every DESIGN.md
//! §5 ablation, as one table: [`FIGURES`]. Each entry sweeps one axis over
//! a few arms, runs and audits all of its cells in one parallel fan-out,
//! and reads one metric per panel off the runs into a `SweepSeries` that
//! the `reproduce` binary renders as tables, followed by the entry's
//! [`Audit`].
//!
//! The paper's absolute task counts (hundreds to thousands of tasks per
//! job, 150–2500 jobs) come from days of cluster time; [`FigureScale`]
//! keeps the *job counts on the x axis* and scales the per-job task counts
//! down so a full reproduction runs on a laptop. Orderings and ratios —
//! the claims the figures make — are preserved; EXPERIMENTS.md records
//! paper-vs-measured per figure.
//!
//! Each ablation varies one knob around its Table II default (DSP offline
//! and online, EC2, the middle job count) and reports the metrics it is
//! supposed to move:
//!
//! * **ρ** (PP filter strength): preemption count vs throughput — the
//!   trade the normalized-priority filter manages;
//! * **γ** (Eq. 12 level decay): how much shallow descendants boost a
//!   task, affecting waiting time;
//! * **δ** (preempting-task window): adjustment coverage vs overhead
//!   (δ = 1.0 considers the whole queue, like the baselines);
//! * **estimate noise σ**: how offline-plan quality degrades and how much
//!   the online phase recovers;
//! * **checkpointing**: DSP's checkpoint-resume vs restart-from-scratch
//!   recovery (the SRPT handicap applied to DSP).

use crate::experiment::{
    run_experiment, run_experiment_under, ClusterProfile, ExperimentConfig, PreemptMethod,
    SchedMethod,
};
use crate::pipeline::Run;
use crate::sweep::parallel_map;
use crate::Params;
use dsp_metrics::{RunMetrics, SweepSeries};
use dsp_preempt::DspPolicy;
use dsp_sim::{NodeView, PreemptAction, PreemptPolicy, WorldCtx};
use dsp_trace::TraceParams;
use dsp_units::Time;
use dsp_verify::{Report, Severity};
use std::collections::BTreeMap;
use std::fmt;

/// Sweep sizing.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureScale {
    /// Job counts for Fig. 5–7 (paper: 150..750 step 150); the ablations
    /// run at the middle one.
    pub job_counts: Vec<usize>,
    /// Job counts for the Fig. 8 scalability sweep (paper: 500..2500 step
    /// 500).
    pub scalability_counts: Vec<usize>,
    /// Per-class task-count scale on the EC2 profile (1.0 = the paper's
    /// 300/1000/2000).
    pub task_scale: f64,
    /// Task-count scale on the (much larger) real-cluster profile. The
    /// paper ran identical workloads on both testbeds; at reduced scale
    /// one scale cannot load both a 100-slot×6120 cluster and a
    /// 60-slot×2660 one, so each profile gets a scale calibrated to the
    /// same moderate overload (EXPERIMENTS.md, "calibration").
    pub task_scale_palmetto: f64,
    /// Workload seed.
    pub seed: u64,
}

impl FigureScale {
    /// The paper's x axes with tasks scaled to 2% — the default for the
    /// `reproduce` binary (minutes, not days).
    pub fn paper() -> Self {
        FigureScale {
            job_counts: vec![150, 300, 450, 600, 750],
            scalability_counts: vec![500, 1000, 1500, 2000, 2500],
            task_scale: 0.06,
            task_scale_palmetto: 0.2,
            seed: 2018,
        }
    }

    /// A fast smoke scale for tests and CI.
    pub fn quick() -> Self {
        FigureScale {
            job_counts: vec![9, 18],
            scalability_counts: vec![12, 24],
            task_scale: 0.06,
            task_scale_palmetto: 0.2,
            seed: 2018,
        }
    }

    /// The task scale `cluster`'s figures run at: the real-cluster
    /// profile has its own, every other profile the EC2 one. `dsp` run
    /// mode takes it as its default `--scale`.
    pub fn task_scale(&self, cluster: ClusterProfile) -> f64 {
        match cluster {
            ClusterProfile::Palmetto => self.task_scale_palmetto,
            _ => self.task_scale,
        }
    }

    /// A figure's base cell: `num_jobs` jobs on `cluster` at that
    /// profile's task scale, DSP offline, no preemption.
    fn figure(&self, cluster: ClusterProfile, num_jobs: usize) -> ExperimentConfig {
        ExperimentConfig {
            cluster,
            num_jobs,
            seed: self.seed,
            sched: SchedMethod::Dsp,
            preempt: PreemptMethod::None,
            trace: TraceParams { task_scale: self.task_scale(cluster), ..TraceParams::default() },
            params: Params::default(),
        }
    }

    /// An ablation's base cell: EC2 at the middle job count, DSP offline
    /// and online.
    fn ablation(&self) -> ExperimentConfig {
        let jobs = self.job_counts[self.job_counts.len() / 2];
        ExperimentConfig { preempt: PreemptMethod::Dsp, ..self.figure(ClusterProfile::Ec2, jobs) }
    }
}

/// What the R1–R6 audits of an entry's cells found, each cell audited with
/// the options its scheduler is held to (`SchedMethod::verify_options`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Audit {
    /// Cells audited.
    pub cells: usize,
    /// Findings over all cells, by severity and rule id.
    pub findings: BTreeMap<Key, usize>,
}

/// A finding's severity and rule id (`R1`…`R6`).
type Key = (Severity, &'static str);

impl Audit {
    /// Add `cells` audited cells and their findings, counted by key.
    fn add(&mut self, cells: usize, findings: impl IntoIterator<Item = (Key, usize)>) {
        self.cells += cells;
        findings.into_iter().for_each(|(key, n)| *self.findings.entry(key).or_default() += n);
    }

    /// Error-severity findings over all cells.
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|((s, _), _)| *s == Severity::Error).map(|(_, n)| n).sum()
    }
}

/// `20 cells audited (R1-R6), 0 errors, R2 warnings 48685, R4 warnings 967`.
impl fmt::Display for Audit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cells audited (R1-R6), {} errors", self.cells, self.errors())?;
        self.findings.iter().try_for_each(|((s, rule), n)| write!(f, ", {rule} {s}s {n}"))
    }
}

/// What an entry builds: its panels, each with an id that begins with the
/// entry's name, and the audit of the cells they plot.
pub type Entry = (Vec<SweepSeries>, Audit);

/// An entry's builder: its [`Entry`] at a scale.
pub type Build = fn(&str, &FigureScale) -> Entry;

/// Every figure and ablation, in print order.
pub const FIGURES: [(&str, Build); 10] = [
    ("fig5a", |name, scale| fig5(name, ClusterProfile::Palmetto, scale)),
    ("fig5b", |name, scale| fig5(name, ClusterProfile::Ec2, scale)),
    ("fig6", |name, scale| preemption_figures(name, ClusterProfile::Palmetto, scale)),
    ("fig7", |name, scale| preemption_figures(name, ClusterProfile::Ec2, scale)),
    ("fig8", fig8),
    ("ablation_rho", ablation_rho),
    ("ablation_gamma", ablation_gamma),
    ("ablation_delta", ablation_delta),
    ("ablation_noise", ablation_noise),
    ("ablation_checkpoint", ablation_checkpoint),
];

/// How a cell runs: [`run_experiment`], or the checkpoint ablation's
/// [`run_restarting`].
type Runner = fn(&ExperimentConfig) -> (Run, Report);

/// A cell: its configuration and how it runs.
type Cell = (ExperimentConfig, Runner);

/// One curve of a sweep: its label and one cell per x.
type Arm = (&'static str, Vec<Cell>);

/// What a panel reads off each run.
type Metric = fn(&RunMetrics) -> f64;

/// A panel: its id, title, y label and metric.
type Panel = (String, String, &'static str, Metric);

/// Run and audit every arm's cells (one per x) in a single parallel
/// fan-out, then plot each panel's metric with one curve per arm. A worker
/// keeps a cell's metrics and audit tally and drops the rest of its run.
fn sweep(x_label: &str, xs: &[f64], arms: Vec<Arm>, panels: Vec<Panel>) -> Entry {
    let grid = arms.iter().flat_map(|(_, cells)| cells.iter().copied()).collect();
    let cells = parallel_map(grid, |(cfg, run)| {
        let (run, report) = run(cfg);
        let mut audit = Audit::default();
        audit.add(1, report.iter().map(|d| ((d.severity, d.rule.id()), 1)));
        (run.metrics, audit)
    });
    let mut audit = Audit::default();
    cells.iter().for_each(|(_, cell)| audit.add(cell.cells, cell.findings.clone()));
    let plot = |(id, title, y_label, metric): Panel| {
        let mut fig = SweepSeries::new(id, title, x_label, y_label, xs.to_vec());
        for ((label, _), cells) in arms.iter().zip(cells.chunks(xs.len())) {
            fig.push(*label, cells.iter().map(|(metrics, _)| metric(metrics)).collect());
        }
        fig
    };
    (panels.into_iter().map(plot).collect(), audit)
}

/// One [`run_experiment`] cell per x, configured by `cfg`.
fn cells<X: Copy>(xs: &[X], cfg: impl Fn(X) -> ExperimentConfig) -> Vec<Cell> {
    xs.iter().map(|&x| (cfg(x), run_experiment as Runner)).collect()
}

/// Job counts as an x axis.
fn axis(counts: &[usize]) -> Vec<f64> {
    counts.iter().map(|&j| j as f64).collect()
}

fn makespan(r: &RunMetrics) -> f64 {
    r.makespan().as_secs_f64()
}

fn throughput(r: &RunMetrics) -> f64 {
    r.throughput_tasks_per_ms()
}

fn waiting(r: &RunMetrics) -> f64 {
    r.avg_job_waiting().as_secs_f64()
}

/// Attempts = evictions + dependency-refused ones; see
/// `RunMetrics::preemption_attempts`.
fn preemptions(r: &RunMetrics) -> f64 {
    r.preemption_attempts() as f64
}

fn disorders(r: &RunMetrics) -> f64 {
    r.disorders as f64
}

/// Fig. 5: makespan vs number of jobs for the scheduling methods
/// (DSP < Aalo < TetrisW/SimDep < TetrisW/oDep), on either cluster.
/// Fig. 5(a) = `Palmetto`, Fig. 5(b) = `Ec2`.
fn fig5(name: &str, cluster: ClusterProfile, scale: &FigureScale) -> Entry {
    let methods =
        [SchedMethod::Dsp, SchedMethod::Aalo, SchedMethod::TetrisSimDep, SchedMethod::TetrisWoDep];
    let arms = methods.map(|sched| {
        let cfg = |h| ExperimentConfig { sched, ..scale.figure(cluster, h) };
        (sched.label(), cells(&scale.job_counts, cfg))
    });
    let title = format!("Makespan vs. number of jobs ({})", cluster.label());
    let panels = vec![(name.into(), title, "makespan (s)", makespan as Metric)];
    sweep("number of jobs", &axis(&scale.job_counts), arms.into(), panels)
}

/// The four preemption metrics of Fig. 6 (real cluster) / Fig. 7 (EC2):
/// (a) disorders, (b) throughput in tasks/ms, (c) average job waiting time,
/// (d) number of preemptions. All methods start from DSP's initial
/// schedule, exactly as Section V-B states.
fn preemption_figures(name: &str, cluster: ClusterProfile, scale: &FigureScale) -> Entry {
    let methods = [
        PreemptMethod::Dsp,
        PreemptMethod::DspWoPp,
        PreemptMethod::Amoeba,
        PreemptMethod::Natjam,
        PreemptMethod::Srpt,
    ];
    // The offline schedule stays `SchedMethod::Dsp`.
    let arms = methods.map(|preempt| {
        let cfg = |h| ExperimentConfig { preempt, ..scale.figure(cluster, h) };
        (preempt.label(), cells(&scale.job_counts, cfg))
    });
    let panel = |suffix: &str, title: &str, y_label, metric| -> Panel {
        (format!("{name}{suffix}"), format!("{title} ({})", cluster.label()), y_label, metric)
    };
    let panels = vec![
        panel("a", "Number of disorders", "disorders", disorders),
        panel("b", "Throughput", "throughput (tasks/ms)", throughput),
        panel("c", "Average waiting time of jobs", "avg job waiting time (s)", waiting),
        panel("d", "Number of preemptions", "preemptions", preemptions),
    ];
    sweep("number of jobs", &axis(&scale.job_counts), arms.into(), panels)
}

/// Fig. 8: DSP's scalability — makespan (a) and throughput (b) as the job
/// count grows to 2500, on both cluster profiles. The per-job task scale
/// is halved relative to Fig. 5–7: the sweep reaches 3.3× more jobs and
/// only DSP's own growth trend is at stake, not a method comparison.
fn fig8(name: &str, scale: &FigureScale) -> Entry {
    let counts = &scale.scalability_counts;
    let arms = [ClusterProfile::Palmetto, ClusterProfile::Ec2].map(|cluster| {
        let cfg = |h| {
            let mut c =
                ExperimentConfig { preempt: PreemptMethod::Dsp, ..scale.figure(cluster, h) };
            c.trace.task_scale *= 0.5;
            c
        };
        (cluster.label(), cells(counts, cfg))
    });
    let panels = vec![
        (format!("{name}a"), "Scalability: makespan".into(), "makespan (s)", makespan as Metric),
        (format!("{name}b"), "Scalability: throughput".into(), "throughput (tasks/ms)", throughput),
    ];
    sweep("number of jobs", &axis(counts), arms.into(), panels)
}

/// A Table II knob swept around the ablation base cell: `set` puts each x
/// into the parameters, and each `(suffix, what, y label, metric)` panel
/// plots one metric of the DSP arm.
fn knob(
    name: &str,
    scale: &FigureScale,
    x_label: &str,
    xs: &[f64],
    set: fn(&mut Params, f64),
    panels: [(&str, &str, &'static str, Metric); 2],
) -> Entry {
    let base = scale.ablation();
    let cfg = |x| {
        let mut c = base;
        set(&mut c.params, x);
        c
    };
    let panels = panels.map(|(suffix, what, y_label, metric)| {
        let title = format!("{what} ({} jobs, EC2)", base.num_jobs);
        (format!("{name}_{suffix}"), title, y_label, metric)
    });
    sweep(x_label, xs, vec![("DSP", cells(xs, cfg))], panels.into())
}

/// ρ sweep: preemption attempts and throughput as the PP filter tightens.
fn ablation_rho(name: &str, scale: &FigureScale) -> Entry {
    let panels = [
        (
            "preemptions",
            "PP strength ρ vs preemptions",
            "preemption attempts",
            preemptions as Metric,
        ),
        ("throughput", "PP strength ρ vs throughput", "throughput (tasks/ms)", throughput),
    ];
    knob(name, scale, "rho", &[1.0, 1.5, 2.0, 4.0, 8.0], |p, rho| p.dsp.rho = rho, panels)
}

/// γ sweep: the Eq. 12 level coefficient against avg waiting & makespan.
fn ablation_gamma(name: &str, scale: &FigureScale) -> Entry {
    let panels = [
        ("wait", "Eq. 12 γ vs avg job waiting", "avg job waiting time (s)", waiting as Metric),
        ("makespan", "Eq. 12 γ vs makespan", "makespan (s)", makespan),
    ];
    knob(name, scale, "gamma", &[0.1, 0.3, 0.5, 0.7, 0.9], |p, g| p.dsp.gamma = g, panels)
}

/// δ sweep: the preempting-task window (1.0 = whole queue).
fn ablation_delta(name: &str, scale: &FigureScale) -> Entry {
    let panels = [
        ("preemptions", "δ window vs preemptions", "preemption attempts", preemptions as Metric),
        ("throughput", "δ window vs throughput", "throughput (tasks/ms)", throughput),
    ];
    knob(name, scale, "delta", &[0.1, 0.35, 0.7, 1.0], |p, delta| p.dsp.delta = delta, panels)
}

/// Estimate-noise sweep: offline-plan degradation and the online phase's
/// recovery, with and without preemption.
fn ablation_noise(name: &str, scale: &FigureScale) -> Entry {
    let base = scale.ablation();
    let sigmas = [0.0, 0.2, 0.4, 0.8];
    let arms =
        [("offline only", PreemptMethod::None), ("offline + DSP preemption", PreemptMethod::Dsp)]
            .map(|(label, preempt)| {
                let cfg = |sigma| {
                    let mut c = ExperimentConfig { preempt, ..base };
                    c.trace.estimate_noise_sigma = sigma;
                    c
                };
                (label, cells(&sigmas, cfg))
            });
    let panels = vec![(
        format!("{name}_makespan"),
        format!("estimate noise σ vs makespan ({} jobs, EC2)", base.num_jobs),
        "makespan (s)",
        makespan as Metric,
    )];
    sweep("sigma", &sigmas, arms.into(), panels)
}

/// Checkpoint-vs-restart ablation on DSP itself: the same Algorithm 1 with
/// restart-from-scratch recovery (the SRPT handicap).
fn ablation_checkpoint(name: &str, scale: &FigureScale) -> Entry {
    let base = scale.ablation();
    let arm = vec![(base, run_experiment as Runner), (base, run_restarting)];
    let panels = vec![(
        name.into(),
        format!("checkpoint-resume vs restart-from-scratch (DSP, {} jobs, EC2)", base.num_jobs),
        "makespan (s)",
        makespan as Metric,
    )];
    sweep("variant (0 = checkpoint, 1 = restart)", &[0.0, 1.0], vec![("DSP", arm)], panels)
}

/// [`run_experiment`] with DSP's policy restarting the tasks it preempts
/// from scratch instead of resuming them from a checkpoint.
fn run_restarting(cfg: &ExperimentConfig) -> (Run, Report) {
    run_experiment_under(cfg, &mut Restart(DspPolicy::new(cfg.params.dsp_params(true))))
}

/// DSP's policy without checkpointing.
struct Restart(DspPolicy);

impl PreemptPolicy for Restart {
    fn name(&self) -> &str {
        "DSP-restart"
    }
    fn begin_epoch(&mut self, now: Time, views: &[NodeView], world: &WorldCtx<'_>) {
        self.0.begin_epoch(now, views, world);
    }
    fn decide(&mut self, now: Time, view: &NodeView, world: &WorldCtx<'_>) -> Vec<PreemptAction> {
        self.0.decide(now, view, world)
    }
    fn checkpointing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigureScale {
        FigureScale { job_counts: vec![8], scalability_counts: vec![8], ..FigureScale::quick() }
    }

    #[test]
    fn every_panel_id_begins_with_its_entry_name_and_every_cell_is_audited() {
        for (name, build) in FIGURES {
            let (figs, audit) = build(name, &tiny());
            for fig in &figs {
                assert!(fig.id.starts_with(name), "{} under {name}", fig.id);
            }
            // One cell per curve per x, each audited once, none in error.
            assert_eq!(audit.cells, figs[0].series.len() * figs[0].x.len(), "{name}");
            assert_eq!(audit.errors(), 0, "{name}: {audit}");
        }
    }

    #[test]
    fn an_audit_line_counts_by_severity_and_rule() {
        let mut audit = Audit::default();
        assert_eq!(audit.to_string(), "0 cells audited (R1-R6), 0 errors");
        let findings = [((Severity::Warning, "R4"), 3), ((Severity::Error, "R6"), 1)];
        audit.add(2, findings);
        audit.add(1, [((Severity::Warning, "R2"), 5), ((Severity::Warning, "R4"), 1)]);
        assert_eq!(audit.cells, 3);
        assert_eq!(
            audit.to_string(),
            "3 cells audited (R1-R6), 1 errors, R2 warnings 5, R4 warnings 4, R6 errors 1"
        );
    }

    #[test]
    fn fig5_quick_shape() {
        let s = &fig5("fig5b", ClusterProfile::Ec2, &FigureScale::quick()).0[0];
        assert_eq!(s.id, "fig5b");
        assert_eq!(s.series.len(), 4);
        assert_eq!(s.x.len(), 2);
        // Makespans grow with job count for every method.
        for m in &s.series {
            assert!(m.values[1] > m.values[0], "{} should grow", m.method);
        }
    }

    #[test]
    fn fig6_quick_has_four_panels() {
        let (figs, _) = preemption_figures("fig6", ClusterProfile::Palmetto, &FigureScale::quick());
        assert_eq!(figs.len(), 4);
        assert_eq!(figs[0].id, "fig6a");
        assert_eq!(figs[3].id, "fig6d");
        for f in &figs {
            assert_eq!(f.series.len(), 5);
        }
        // DSP never produces disorders.
        let dsp_disorders = figs[0].method("DSP").unwrap();
        assert!(dsp_disorders.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fig8_quick_has_both_clusters() {
        let (figs, _) = fig8("fig8", &FigureScale::quick());
        assert_eq!(figs.len(), 2);
        for f in &figs {
            assert!(f.method("real cluster").is_some());
            assert!(f.method("EC2").is_some());
        }
        // Each profile's makespan grows with the job count (the workloads
        // are calibrated per cluster, so cross-profile comparison is not
        // meaningful here).
        for f in &figs[..1] {
            for m in &f.series {
                assert!(m.values.windows(2).all(|w| w[0] < w[1]), "{} not growing", m.method);
            }
        }
    }

    #[test]
    fn rho_sweep_shapes() {
        let (figs, _) = ablation_rho("ablation_rho", &tiny());
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].x.len(), 5);
        // Tightening ρ never increases preemptions (monotone non-increasing
        // within noise; assert endpoints).
        let p = &figs[0].series[0].values;
        assert!(p[0] >= p[p.len() - 1], "ρ=1 {} vs ρ=8 {}", p[0], p[p.len() - 1]);
    }

    #[test]
    fn noise_sweep_has_two_arms() {
        let (figs, _) = ablation_noise("ablation_noise", &tiny());
        assert_eq!(figs[0].series.len(), 2);
    }

    #[test]
    fn checkpoint_beats_restart() {
        let (figs, _) = ablation_checkpoint("ablation_checkpoint", &tiny());
        let v = &figs[0].series[0].values;
        assert!(v[0] <= v[1], "checkpoint {} must not lose to restart {}", v[0], v[1]);
    }
}
