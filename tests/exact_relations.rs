//! Exact relations: what a run must equal, not just bound.
//!
//! R1–R6 check a plan and the accounting of its execution, so an engine
//! that ran every task at the wrong speed would still pass them. An
//! isolated job pins the speed down: alone on an idle, homogeneous cluster
//! with more free slots than it has tasks, nothing contends with it, so
//! its makespan (first start to last finish) is its critical path over the
//! tasks' true execution times at the node rate, to the microsecond. Noisy
//! size estimates change the plan's guesses, not that equality: the engine
//! dispatches each task as soon as its parents finish.

use dsp_cluster::ClusterSpec;
use dsp_core::{
    run_experiment, ClusterProfile, ExperimentConfig, FigureScale, Params, PreemptMethod,
    SchedMethod,
};
use dsp_dag::critical_path_len;
use dsp_trace::{generate_workload, TraceParams};
use dsp_units::{Dur, Mips};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The one rate every node of `cluster` runs at.
fn homogeneous_rate(cluster: &ClusterSpec) -> Mips {
    let rate = cluster.nodes[0].rate();
    assert!(cluster.nodes.iter().all(|n| n.rate() == rate), "a paper profile is homogeneous");
    rate
}

#[test]
fn an_isolated_job_spans_exactly_its_critical_path() {
    for cluster in [ClusterProfile::Ec2, ClusterProfile::Palmetto] {
        let rate = homogeneous_rate(&cluster.build());
        for sigma in [0.0, 0.4] {
            for seed in 1..=10 {
                let trace = TraceParams {
                    task_scale: FigureScale::paper().task_scale(cluster),
                    estimate_noise_sigma: sigma,
                    ..TraceParams::default()
                };
                let cfg = ExperimentConfig {
                    cluster,
                    num_jobs: 1,
                    seed,
                    sched: SchedMethod::Dsp,
                    preempt: PreemptMethod::Dsp,
                    trace,
                    params: Params::default(),
                };
                let case = format!("{} σ={sigma} seed {seed}", cluster.name());
                let (run, report) = run_experiment(&cfg);
                assert!(report.passes(), "{case}:\n{report}");
                let job = generate_workload(&mut StdRng::seed_from_u64(seed), 1, &trace).remove(0);
                assert!(job.num_tasks() <= cluster.build().total_slots(), "{case}: contended");
                let exec: Vec<Dur> = job.tasks.iter().map(|t| t.exec_time(rate)).collect();
                let critical_path = critical_path_len(&job.dag, &exec);
                assert_eq!(
                    run.metrics.makespan().as_micros(),
                    critical_path.as_micros(),
                    "{case}: makespan is not the critical path"
                );
            }
        }
    }
}
