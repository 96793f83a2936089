//! One builder per paper figure. Each returns `SweepSeries` that the
//! `reproduce` binary renders as tables; Criterion benches reuse the same
//! builders.
//!
//! The paper's absolute task counts (hundreds to thousands of tasks per
//! job, 150–2500 jobs) come from days of cluster time; [`FigureScale`]
//! keeps the *job counts on the x axis* and scales the per-job task counts
//! down so a full reproduction runs on a laptop. Orderings and ratios —
//! the claims the figures make — are preserved; EXPERIMENTS.md records
//! paper-vs-measured per figure.

use crate::experiment::{
    run_experiment, ClusterProfile, ExperimentConfig, PreemptMethod, SchedMethod,
};
use crate::sweep::parallel_map;
use crate::Params;
use dsp_metrics::{RunMetrics, SweepSeries};
use dsp_trace::TraceParams;

/// Sweep sizing.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureScale {
    /// Job counts for Fig. 5–7 (paper: 150..750 step 150).
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

    fn trace(&self, cluster: ClusterProfile) -> TraceParams {
        let scale = match cluster {
            ClusterProfile::Palmetto => self.task_scale_palmetto,
            _ => self.task_scale,
        };
        TraceParams { task_scale: scale, ..TraceParams::default() }
    }
}

fn base_cfg(scale: &FigureScale, cluster: ClusterProfile, num_jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        cluster,
        num_jobs,
        seed: scale.seed,
        sched: SchedMethod::Dsp,
        preempt: PreemptMethod::None,
        trace: scale.trace(cluster),
        params: Params::default(),
    }
}

/// Fig. 5: makespan vs number of jobs for the scheduling methods
/// (DSP < Aalo < TetrisW/SimDep < TetrisW/oDep), on either cluster.
/// Fig. 5(a) = `Palmetto`, Fig. 5(b) = `Ec2`.
pub fn fig5(cluster: ClusterProfile, scale: &FigureScale) -> SweepSeries {
    let methods =
        [SchedMethod::Dsp, SchedMethod::Aalo, SchedMethod::TetrisSimDep, SchedMethod::TetrisWoDep];
    let id = match cluster {
        ClusterProfile::Palmetto => "fig5a",
        _ => "fig5b",
    };
    let mut sweep = SweepSeries::new(
        id,
        format!("Makespan vs. number of jobs ({})", cluster.label()),
        "number of jobs",
        "makespan (s)",
        scale.job_counts.iter().map(|&j| j as f64).collect(),
    );
    // One flat config list so the parallel fan-out covers the full grid.
    let mut configs = Vec::new();
    for &m in &methods {
        for &h in &scale.job_counts {
            let mut c = base_cfg(scale, cluster, h);
            c.sched = m;
            configs.push(c);
        }
    }
    let results = parallel_map(configs, 0, run_experiment);
    for (mi, m) in methods.iter().enumerate() {
        let ys = results[mi * scale.job_counts.len()..(mi + 1) * scale.job_counts.len()]
            .iter()
            .map(|r| r.makespan().as_secs_f64())
            .collect();
        sweep.push(m.label(), ys);
    }
    sweep
}

/// The four preemption metrics of Fig. 6 (real cluster) / Fig. 7 (EC2):
/// (a) disorders, (b) throughput in tasks/ms, (c) average job waiting time,
/// (d) number of preemptions. All methods start from DSP's initial
/// schedule, exactly as Section V-B states.
pub fn preemption_figures(cluster: ClusterProfile, scale: &FigureScale) -> Vec<SweepSeries> {
    let methods = [
        PreemptMethod::Dsp,
        PreemptMethod::DspWoPp,
        PreemptMethod::Amoeba,
        PreemptMethod::Natjam,
        PreemptMethod::Srpt,
    ];
    let prefix = match cluster {
        ClusterProfile::Palmetto => "fig6",
        _ => "fig7",
    };
    let xs: Vec<f64> = scale.job_counts.iter().map(|&j| j as f64).collect();
    let mk = |suffix: &str, title: &str, ylab: &str| {
        SweepSeries::new(
            format!("{prefix}{suffix}"),
            format!("{title} ({})", cluster.label()),
            "number of jobs",
            ylab,
            xs.clone(),
        )
    };
    let mut fig_a = mk("a", "Number of disorders", "disorders");
    let mut fig_b = mk("b", "Throughput", "throughput (tasks/ms)");
    let mut fig_c = mk("c", "Average waiting time of jobs", "avg job waiting time (s)");
    let mut fig_d = mk("d", "Number of preemptions", "preemptions");

    let mut configs = Vec::new();
    for &p in &methods {
        for &h in &scale.job_counts {
            let mut c = base_cfg(scale, cluster, h);
            c.preempt = p; // offline schedule stays SchedMethod::Dsp
            configs.push(c);
        }
    }
    let results = parallel_map(configs, 0, run_experiment);
    for (mi, m) in methods.iter().enumerate() {
        let chunk: &[RunMetrics] =
            &results[mi * scale.job_counts.len()..(mi + 1) * scale.job_counts.len()];
        fig_a.push(m.label(), chunk.iter().map(|r| r.disorders as f64).collect());
        fig_b.push(m.label(), chunk.iter().map(|r| r.throughput_tasks_per_ms()).collect());
        fig_c.push(m.label(), chunk.iter().map(|r| r.avg_job_waiting().as_secs_f64()).collect());
        // Attempts = evictions + dependency-refused ones; see
        // `RunMetrics::preemption_attempts`.
        fig_d.push(m.label(), chunk.iter().map(|r| r.preemption_attempts() as f64).collect());
    }
    vec![fig_a, fig_b, fig_c, fig_d]
}

/// Fig. 6: the four preemption metrics on the real-cluster profile.
pub fn fig6(scale: &FigureScale) -> Vec<SweepSeries> {
    preemption_figures(ClusterProfile::Palmetto, scale)
}

/// Fig. 7: the same four metrics on the EC2 profile.
pub fn fig7(scale: &FigureScale) -> Vec<SweepSeries> {
    preemption_figures(ClusterProfile::Ec2, scale)
}

/// Fig. 8: DSP's scalability — makespan (a) and throughput (b) as the job
/// count grows to 2500, on both cluster profiles. The per-job task scale
/// is halved relative to Fig. 5–7: the sweep reaches 3.3× more jobs and
/// only DSP's own growth trend is at stake, not a method comparison.
pub fn fig8(scale: &FigureScale) -> Vec<SweepSeries> {
    let clusters = [ClusterProfile::Palmetto, ClusterProfile::Ec2];
    let xs: Vec<f64> = scale.scalability_counts.iter().map(|&j| j as f64).collect();
    let mut fig_a = SweepSeries::new(
        "fig8a",
        "Scalability: makespan",
        "number of jobs",
        "makespan (s)",
        xs.clone(),
    );
    let mut fig_b = SweepSeries::new(
        "fig8b",
        "Scalability: throughput",
        "number of jobs",
        "throughput (tasks/ms)",
        xs,
    );
    let mut configs = Vec::new();
    for &cl in &clusters {
        for &h in &scale.scalability_counts {
            let mut c = base_cfg(scale, cl, h);
            c.preempt = PreemptMethod::Dsp;
            c.trace.task_scale *= 0.5;
            configs.push(c);
        }
    }
    let results = parallel_map(configs, 0, run_experiment);
    for (ci, cl) in clusters.iter().enumerate() {
        let chunk = &results
            [ci * scale.scalability_counts.len()..(ci + 1) * scale.scalability_counts.len()];
        fig_a.push(cl.label(), chunk.iter().map(|r| r.makespan().as_secs_f64()).collect());
        fig_b.push(cl.label(), chunk.iter().map(|r| r.throughput_tasks_per_ms()).collect());
    }
    vec![fig_a, fig_b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_quick_shape() {
        let s = fig5(ClusterProfile::Ec2, &FigureScale::quick());
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
        let figs = fig6(&FigureScale::quick());
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
        let figs = fig8(&FigureScale::quick());
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
}
