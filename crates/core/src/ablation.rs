//! Ablation sweeps for the design choices DESIGN.md §5 calls out.
//!
//! Each builder varies one knob around its Table II default and reports
//! the metrics it is supposed to move:
//!
//! * **ρ** (PP filter strength): preemption count vs throughput — the
//!   trade the normalized-priority filter manages;
//! * **γ** (Eq. 12 level decay): how much shallow descendants boost a
//!   task, affecting waiting time;
//! * **δ** (preempting-task window): adjustment coverage vs overhead
//!   (δ = 1.0 considers the whole queue, like the baselines);
//! * **checkpointing**: DSP's checkpoint-resume vs restart-from-scratch
//!   recovery (the SRPT handicap applied to DSP);
//! * **estimate noise σ**: how offline-plan quality degrades and how much
//!   the online phase recovers.

use crate::experiment::{
    run_experiment, ClusterProfile, ExperimentConfig, PreemptMethod, SchedMethod,
};
use crate::figures::FigureScale;
use crate::sweep::parallel_map;
use crate::Params;
use dsp_metrics::SweepSeries;
use dsp_preempt::DspPolicy;
use dsp_trace::{generate_workload, TraceParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn base(scale: &FigureScale, num_jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterProfile::Ec2,
        num_jobs,
        seed: scale.seed,
        sched: SchedMethod::Dsp,
        preempt: PreemptMethod::Dsp,
        trace: TraceParams { task_scale: scale.task_scale, ..TraceParams::default() },
        params: Params::default(),
    }
}

fn mid_jobs(scale: &FigureScale) -> usize {
    scale.job_counts[scale.job_counts.len() / 2]
}

/// ρ sweep: preemption attempts and throughput as the PP filter tightens.
pub fn ablation_rho(scale: &FigureScale) -> Vec<SweepSeries> {
    let rhos = [1.0f64, 1.5, 2.0, 4.0, 8.0];
    let jobs = mid_jobs(scale);
    let configs: Vec<ExperimentConfig> = rhos
        .iter()
        .map(|&rho| {
            let mut c = base(scale, jobs);
            c.params.rho = rho;
            c
        })
        .collect();
    let results = parallel_map(configs, 0, run_experiment);
    let mut preempts = SweepSeries::new(
        "ablation_rho_preemptions",
        format!("PP strength ρ vs preemptions ({jobs} jobs, EC2)"),
        "rho",
        "preemption attempts",
        rhos.to_vec(),
    );
    preempts.push("DSP", results.iter().map(|r| r.preemption_attempts() as f64).collect());
    let mut tput = SweepSeries::new(
        "ablation_rho_throughput",
        format!("PP strength ρ vs throughput ({jobs} jobs, EC2)"),
        "rho",
        "throughput (tasks/ms)",
        rhos.to_vec(),
    );
    tput.push("DSP", results.iter().map(|r| r.throughput_tasks_per_ms()).collect());
    vec![preempts, tput]
}

/// γ sweep: the Eq. 12 level coefficient against avg waiting & makespan.
pub fn ablation_gamma(scale: &FigureScale) -> Vec<SweepSeries> {
    let gammas = [0.1f64, 0.3, 0.5, 0.7, 0.9];
    let jobs = mid_jobs(scale);
    let configs: Vec<ExperimentConfig> = gammas
        .iter()
        .map(|&gamma| {
            let mut c = base(scale, jobs);
            c.params.gamma = gamma;
            c
        })
        .collect();
    let results = parallel_map(configs, 0, run_experiment);
    let mut wait = SweepSeries::new(
        "ablation_gamma_wait",
        format!("Eq. 12 γ vs avg job waiting ({jobs} jobs, EC2)"),
        "gamma",
        "avg job waiting time (s)",
        gammas.to_vec(),
    );
    wait.push("DSP", results.iter().map(|r| r.avg_job_waiting().as_secs_f64()).collect());
    let mut mk = SweepSeries::new(
        "ablation_gamma_makespan",
        format!("Eq. 12 γ vs makespan ({jobs} jobs, EC2)"),
        "gamma",
        "makespan (s)",
        gammas.to_vec(),
    );
    mk.push("DSP", results.iter().map(|r| r.makespan().as_secs_f64()).collect());
    vec![wait, mk]
}

/// δ sweep: the preempting-task window (1.0 = whole queue).
pub fn ablation_delta(scale: &FigureScale) -> Vec<SweepSeries> {
    let deltas = [0.1f64, 0.35, 0.7, 1.0];
    let jobs = mid_jobs(scale);
    let configs: Vec<ExperimentConfig> = deltas
        .iter()
        .map(|&delta| {
            let mut c = base(scale, jobs);
            c.params.delta = delta;
            c
        })
        .collect();
    let results = parallel_map(configs, 0, run_experiment);
    let mut preempts = SweepSeries::new(
        "ablation_delta_preemptions",
        format!("δ window vs preemptions ({jobs} jobs, EC2)"),
        "delta",
        "preemption attempts",
        deltas.to_vec(),
    );
    preempts.push("DSP", results.iter().map(|r| r.preemption_attempts() as f64).collect());
    let mut tput = SweepSeries::new(
        "ablation_delta_throughput",
        format!("δ window vs throughput ({jobs} jobs, EC2)"),
        "delta",
        "throughput (tasks/ms)",
        deltas.to_vec(),
    );
    tput.push("DSP", results.iter().map(|r| r.throughput_tasks_per_ms()).collect());
    vec![preempts, tput]
}

/// Estimate-noise sweep: offline-plan degradation and the online phase's
/// recovery. Two curves per metric: with and without preemption.
pub fn ablation_noise(scale: &FigureScale) -> Vec<SweepSeries> {
    let sigmas = [0.0f64, 0.2, 0.4, 0.8];
    let jobs = mid_jobs(scale);
    let mut configs = Vec::new();
    for &preempt in &[PreemptMethod::None, PreemptMethod::Dsp] {
        for &sigma in &sigmas {
            let mut c = base(scale, jobs);
            c.preempt = preempt;
            c.trace.estimate_noise_sigma = sigma;
            configs.push(c);
        }
    }
    let results = parallel_map(configs, 0, run_experiment);
    let mut mk = SweepSeries::new(
        "ablation_noise_makespan",
        format!("estimate noise σ vs makespan ({jobs} jobs, EC2)"),
        "sigma",
        "makespan (s)",
        sigmas.to_vec(),
    );
    mk.push(
        "offline only",
        results[..sigmas.len()].iter().map(|r| r.makespan().as_secs_f64()).collect(),
    );
    mk.push(
        "offline + DSP preemption",
        results[sigmas.len()..].iter().map(|r| r.makespan().as_secs_f64()).collect(),
    );
    vec![mk]
}

/// Checkpoint-vs-restart ablation on DSP itself: the same Algorithm 1 with
/// restart-from-scratch recovery (the SRPT handicap).
pub fn ablation_checkpoint(scale: &FigureScale) -> Vec<SweepSeries> {
    struct NoCkpt(DspPolicy);
    impl dsp_sim::PreemptPolicy for NoCkpt {
        fn name(&self) -> &str {
            "DSP-restart"
        }
        fn begin_epoch(
            &mut self,
            now: dsp_units::Time,
            views: &[dsp_sim::NodeView],
            world: &dsp_sim::WorldCtx<'_>,
        ) {
            self.0.begin_epoch(now, views, world);
        }
        fn decide(
            &mut self,
            now: dsp_units::Time,
            view: &dsp_sim::NodeView,
            world: &dsp_sim::WorldCtx<'_>,
        ) -> Vec<dsp_sim::PreemptAction> {
            self.0.decide(now, view, world)
        }
        fn checkpointing(&self) -> bool {
            false
        }
    }

    let jobs = mid_jobs(scale);
    let cfg = base(scale, jobs);
    let cluster = cfg.cluster.build();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let workload = generate_workload(&mut rng, cfg.num_jobs, &cfg.trace);
    let system = crate::DspSystem::new(cluster, cfg.params);

    let mut sched = dsp_sched::DspListScheduler::default();
    let mut with = DspPolicy::new(cfg.params.dsp_params(true));
    let m_with = system.run_with(&workload, &mut sched, &mut with);
    let mut without = NoCkpt(DspPolicy::new(cfg.params.dsp_params(true)));
    let m_without = system.run_with(&workload, &mut sched, &mut without);

    let mut s = SweepSeries::new(
        "ablation_checkpoint",
        format!("checkpoint-resume vs restart-from-scratch (DSP, {jobs} jobs, EC2)"),
        "variant (0 = checkpoint, 1 = restart)",
        "makespan (s)",
        vec![0.0, 1.0],
    );
    s.push("DSP", vec![m_with.makespan().as_secs_f64(), m_without.makespan().as_secs_f64()]);
    vec![s]
}

/// All ablations.
pub fn all_ablations(scale: &FigureScale) -> Vec<SweepSeries> {
    let mut out = Vec::new();
    out.extend(ablation_rho(scale));
    out.extend(ablation_gamma(scale));
    out.extend(ablation_delta(scale));
    out.extend(ablation_noise(scale));
    out.extend(ablation_checkpoint(scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigureScale {
        FigureScale { job_counts: vec![8], scalability_counts: vec![8], ..FigureScale::quick() }
    }

    #[test]
    fn rho_sweep_shapes() {
        let figs = ablation_rho(&tiny());
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].x.len(), 5);
        // Tightening ρ never increases preemptions (monotone non-increasing
        // within noise; assert endpoints).
        let p = &figs[0].series[0].values;
        assert!(p[0] >= p[p.len() - 1], "ρ=1 {} vs ρ=8 {}", p[0], p[p.len() - 1]);
    }

    #[test]
    fn noise_sweep_has_two_arms() {
        let figs = ablation_noise(&tiny());
        assert_eq!(figs[0].series.len(), 2);
    }

    #[test]
    fn checkpoint_beats_restart() {
        let figs = ablation_checkpoint(&tiny());
        let v = &figs[0].series[0].values;
        assert!(v[0] <= v[1], "checkpoint {} must not lose to restart {}", v[0], v[1]);
    }
}
