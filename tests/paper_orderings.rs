//! Shape checks against the paper's reported orderings, at a reduced but
//! non-trivial scale. These assert the *relations* each figure claims, not
//! absolute values — see EXPERIMENTS.md for the full-scale record.

use dsp_core::{
    run_experiment, ClusterProfile, ExperimentConfig, Params, PreemptMethod, SchedMethod,
};
use dsp_metrics::RunMetrics;
use dsp_trace::TraceParams;

const JOBS: usize = 45;
const SEED: u64 = 2018;

/// One cell at its figure scale, held to its audit: no error-severity
/// R1–R6 finding.
fn run(cluster: ClusterProfile, sched: SchedMethod, preempt: PreemptMethod) -> RunMetrics {
    audited(&ExperimentConfig {
        cluster,
        num_jobs: JOBS,
        seed: SEED,
        sched,
        preempt,
        // Per-cluster workload scales: the figure harness calibration.
        trace: TraceParams { task_scale: cluster.task_scale(), ..TraceParams::default() },
        params: Params::default(),
    })
}

fn audited(cfg: &ExperimentConfig) -> RunMetrics {
    let (run, report) = run_experiment(cfg);
    assert!(report.passes(), "{} + {}:\n{report}", cfg.sched.label(), cfg.preempt.label());
    run.metrics
}

/// Fig. 5's headline: dependency-aware global scheduling (DSP) beats the
/// dependency-oblivious packer (TetrisW/oDep), with the simple-dependency
/// variant in between.
#[test]
fn fig5_dsp_beats_tetris_variants() {
    for cluster in [ClusterProfile::Palmetto, ClusterProfile::Ec2] {
        let dsp = run(cluster, SchedMethod::Dsp, PreemptMethod::None).makespan();
        let simdep = run(cluster, SchedMethod::TetrisSimDep, PreemptMethod::None).makespan();
        let wodep = run(cluster, SchedMethod::TetrisWoDep, PreemptMethod::None).makespan();
        assert!(dsp < wodep, "{}: DSP {} !< TetrisW/oDep {}", cluster.label(), dsp, wodep);
        assert!(dsp <= simdep, "{}: DSP {} !<= SimDep {}", cluster.label(), dsp, simdep);
        assert!(simdep <= wodep, "{}: SimDep {} !<= W/oDep {}", cluster.label(), simdep, wodep);
    }
}

/// Fig. 6(a): DSP's preemption is the only one that never dispatches
/// against the dependency order; SRPT (no dependency, no checkpoint) is
/// the worst offender.
#[test]
fn fig6a_disorder_ordering() {
    let dsp = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::Dsp);
    let srpt = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::Srpt);
    assert_eq!(dsp.disorders, 0);
    assert!(srpt.disorders >= dsp.disorders);
}

/// Fig. 6(b): DSP's throughput tops the baselines; the PP filter helps
/// (DSP ≥ DSPW/oPP ≥ SRPT).
#[test]
fn fig6b_throughput_ordering() {
    let dsp = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::Dsp);
    let wopp = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::DspWoPp);
    let srpt = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::Srpt);
    assert!(
        dsp.throughput_tasks_per_ms() >= wopp.throughput_tasks_per_ms(),
        "PP must not hurt throughput: {} vs {}",
        dsp.throughput_tasks_per_ms(),
        wopp.throughput_tasks_per_ms()
    );
    assert!(
        dsp.throughput_tasks_per_ms() > srpt.throughput_tasks_per_ms(),
        "DSP {} !> SRPT {}",
        dsp.throughput_tasks_per_ms(),
        srpt.throughput_tasks_per_ms()
    );
}

/// Fig. 6(d): preemption attempts — DSP (δ window + C2 + PP) attempts
/// least; DSPW/oPP at least as much; the dependency-oblivious SRPT attempts
/// most (its dependency-violating attempts surface as disorders).
#[test]
fn fig6d_preemption_ordering() {
    let dsp = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::Dsp);
    let wopp = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::DspWoPp);
    let srpt = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::Srpt);
    assert!(
        dsp.preemption_attempts() <= wopp.preemption_attempts(),
        "{} vs {}",
        dsp.preemption_attempts(),
        wopp.preemption_attempts()
    );
    assert!(
        dsp.preemption_attempts() < srpt.preemption_attempts(),
        "{} vs {}",
        dsp.preemption_attempts(),
        srpt.preemption_attempts()
    );
}

/// Fig. 7 vs Fig. 6: the smaller EC2 cluster shows longer average waiting
/// than the real cluster for the same workload (the paper's cross-figure
/// observation).
#[test]
fn fig7c_waits_longer_on_smaller_cluster() {
    let real = run(ClusterProfile::Palmetto, SchedMethod::Dsp, PreemptMethod::Dsp);
    let ec2 = run(ClusterProfile::Ec2, SchedMethod::Dsp, PreemptMethod::Dsp);
    assert!(
        ec2.avg_job_waiting() > real.avg_job_waiting(),
        "EC2 {} !> real {}",
        ec2.avg_job_waiting(),
        real.avg_job_waiting()
    );
}

/// Fig. 8: makespan grows with job count but throughput does not collapse
/// (scalability).
#[test]
fn fig8_scalability_shape() {
    let mut prev_makespan = dsp_units::Dur::ZERO;
    let mut throughputs = Vec::new();
    for jobs in [15usize, 30, 45] {
        let m = audited(&ExperimentConfig {
            cluster: ClusterProfile::Ec2,
            num_jobs: jobs,
            seed: SEED,
            sched: SchedMethod::Dsp,
            preempt: PreemptMethod::Dsp,
            trace: TraceParams { task_scale: 0.02, ..TraceParams::default() },
            params: Params::default(),
        });
        assert!(m.makespan() > prev_makespan, "makespan must grow with load");
        prev_makespan = m.makespan();
        throughputs.push(m.throughput_tasks_per_ms());
    }
    // Throughput stays within a sane band (no collapse to zero).
    let max = throughputs.iter().cloned().fold(0.0, f64::max);
    let min = throughputs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(min > 0.0);
    assert!(max / min < 10.0, "throughput should not collapse: {throughputs:?}");
}
