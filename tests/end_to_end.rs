//! End-to-end integration: workload generation → offline scheduling →
//! simulated execution with online preemption → metrics, across every
//! method combination.

use dsp_core::{
    run_experiment, ClusterProfile, ExperimentConfig, Params, PreemptMethod, SchedMethod,
};
use dsp_metrics::RunMetrics;
use dsp_trace::TraceParams;
use dsp_units::Dur;

fn cfg(num_jobs: usize, seed: u64) -> ExperimentConfig {
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

/// Run `c` and hold it to its audit: no error-severity R1–R6 finding.
fn run(c: &ExperimentConfig) -> RunMetrics {
    let (run, report) = run_experiment(c);
    assert!(report.passes(), "{} + {}:\n{report}", c.sched.label(), c.preempt.label());
    run.metrics
}

#[test]
fn full_grid_completes_every_job() {
    let scheds = [
        SchedMethod::Dsp,
        SchedMethod::TetrisWoDep,
        SchedMethod::TetrisSimDep,
        SchedMethod::Aalo,
        SchedMethod::Fifo,
        SchedMethod::Random,
    ];
    let preempts = [
        PreemptMethod::None,
        PreemptMethod::Dsp,
        PreemptMethod::DspWoPp,
        PreemptMethod::Amoeba,
        PreemptMethod::Natjam,
        PreemptMethod::Srpt,
    ];
    let mut c = cfg(6, 31);
    for s in scheds {
        for p in preempts {
            c.sched = s;
            c.preempt = p;
            let m = run(&c);
            assert_eq!(m.jobs_completed(), 6, "{}+{}", s.label(), p.label());
            assert!(m.makespan() > Dur::ZERO);
        }
    }
}

#[test]
fn dsp_produces_zero_disorders_everywhere() {
    for seed in [1u64, 2, 3] {
        let mut c = cfg(8, seed);
        c.preempt = PreemptMethod::Dsp;
        assert_eq!(run(&c).disorders, 0, "seed {seed}");
        c.preempt = PreemptMethod::DspWoPp;
        assert_eq!(run(&c).disorders, 0, "seed {seed} w/oPP");
    }
}

#[test]
fn determinism_across_thread_counts() {
    // The sweep layer parallelizes over configs; a single experiment must
    // not depend on ambient parallelism at all.
    let c = cfg(6, 5);
    let runs: Vec<_> = (0..3).map(|_| run(&c)).collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn bigger_cluster_is_faster() {
    let mut c = cfg(12, 9);
    c.cluster = ClusterProfile::Ec2;
    let ec2 = run(&c);
    c.cluster = ClusterProfile::Palmetto;
    let palmetto = run(&c);
    assert!(
        palmetto.makespan() < ec2.makespan(),
        "50 fast nodes must beat 30 slow ones: {} vs {}",
        palmetto.makespan(),
        ec2.makespan()
    );
    // And queueing is worse on the smaller cluster (the Fig. 6c vs 7c
    // observation).
    assert!(palmetto.avg_job_waiting() <= ec2.avg_job_waiting());
}

#[test]
fn preemption_overhead_is_accounted() {
    let mut c = cfg(10, 4);
    c.preempt = PreemptMethod::Srpt;
    let m = run(&c);
    if m.preemptions > 0 {
        // Every preemption charges recovery + σ; defaults are 1 s + 50 ms.
        assert_eq!(m.switch_overhead, Dur::from_millis(1050) * m.preemptions);
    }
}

#[test]
fn workload_scales_with_job_count() {
    let small = run(&cfg(4, 8));
    let large = run(&cfg(16, 8));
    assert!(large.tasks_completed > small.tasks_completed);
    assert!(large.makespan() >= small.makespan());
}
