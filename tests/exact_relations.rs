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
//!
//! Under load, equality gives way to the two lower bounds of Aggarwal et
//! al.: no cell ends before its longest job's critical path, nor before its
//! total work could drain at the cluster's full capacity. And nothing in
//! the two-phase loop reads the clock's origin, so a workload moved by
//! whole scheduling periods runs the same, every instant moved with it.

use dsp_cluster::ClusterSpec;
use dsp_core::{
    run_audited, run_experiment, ClusterProfile, ExperimentConfig, FigureScale, Params,
    PreemptMethod, SchedMethod,
};
use dsp_dag::{critical_path_len, Job};
use dsp_sim::FaultPlan;
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

/// The critical path of `job` over its true execution times at `rate`.
fn critical_path(job: &Job, rate: Mips) -> Dur {
    let exec: Vec<Dur> = job.tasks.iter().map(|t| t.exec_time(rate)).collect();
    critical_path_len(&job.dag, &exec)
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
                assert_eq!(
                    run.metrics.makespan().as_micros(),
                    critical_path(&job, rate).as_micros(),
                    "{case}: makespan is not the critical path"
                );
            }
        }
    }
}

/// Thirty jobs arriving within three seconds land in one period batch on
/// `cluster`, at its figure task scale: a load-dominated cell. Every arm
/// of Fig. 5's offline axis, with and without DSP's online phase, must
/// span at least the cell's longest critical path and its load bound
/// `W / Σ_k slots_k·g(k)`, both over true sizes.
fn a_loaded_cell_spans_at_least_its_bounds(cluster: ClusterProfile) {
    let seed = 2018;
    let params = Params::default();
    let spec = cluster.build();
    let rate = homogeneous_rate(&spec);
    let trace = TraceParams {
        task_scale: FigureScale::paper().task_scale(cluster),
        arrival_rate_per_min: (600.0, 600.0),
        ..TraceParams::default()
    };
    let jobs = generate_workload(&mut StdRng::seed_from_u64(seed), 30, &trace);
    let longest = jobs.iter().map(|j| critical_path(j, rate)).max().unwrap().as_secs_f64();
    let work: f64 = jobs.iter().flat_map(|j| &j.tasks).map(|t| t.size.get()).sum();
    let capacity: f64 = spec.nodes.iter().map(|n| n.slots as f64 * n.rate().get()).sum();
    let load = work / capacity;
    assert!(load > longest, "{}: the cell is not load-dominated", cluster.name());
    let scheds =
        [SchedMethod::Dsp, SchedMethod::Aalo, SchedMethod::TetrisSimDep, SchedMethod::TetrisWoDep];
    for sched in scheds {
        for preempt in [PreemptMethod::None, PreemptMethod::Dsp] {
            let case = format!("{} {} + {}", cluster.name(), sched.label(), preempt.label());
            let mut policy = preempt.build(&params);
            let faults = FaultPlan::none();
            let (run, report) =
                run_audited(&jobs, &spec, &params, sched, seed, policy.as_mut(), faults);
            assert!(report.passes(), "{case}:\n{report}");
            let makespan = run.metrics.makespan().as_secs_f64();
            assert!(
                makespan >= longest,
                "{case}: {makespan} s under the critical path {longest} s"
            );
            assert!(makespan >= load, "{case}: {makespan} s under the load bound {load} s");
        }
    }
}

#[test]
fn a_loaded_ec2_cell_spans_at_least_its_bounds() {
    a_loaded_cell_spans_at_least_its_bounds(ClusterProfile::Ec2);
}

#[test]
fn a_loaded_palmetto_cell_spans_at_least_its_bounds() {
    a_loaded_cell_spans_at_least_its_bounds(ClusterProfile::Palmetto);
}

/// `jobs` with every arrival and deadline moved `by` later.
fn shifted(jobs: &[Job], by: Dur) -> Vec<Job> {
    let mut jobs = jobs.to_vec();
    for job in &mut jobs {
        job.arrival += by;
        job.deadline += by;
    }
    jobs
}

#[test]
fn moving_a_workload_by_whole_periods_moves_every_instant() {
    let seed = 7;
    let params = Params::default();
    for cluster in [ClusterProfile::Ec2, ClusterProfile::Palmetto] {
        let spec = cluster.build();
        let trace = TraceParams {
            task_scale: FigureScale::paper().task_scale(cluster),
            ..TraceParams::default()
        };
        let jobs = generate_workload(&mut StdRng::seed_from_u64(seed), 6, &trace);
        for preempt in [PreemptMethod::Dsp, PreemptMethod::Srpt] {
            let run = |jobs: &[Job]| {
                let mut policy = preempt.build(&params);
                let faults = FaultPlan::none();
                let (run, report) = run_audited(
                    jobs,
                    &spec,
                    &params,
                    SchedMethod::Dsp,
                    seed,
                    policy.as_mut(),
                    faults,
                );
                assert!(report.passes(), "{report}");
                run
            };
            let base = run(&jobs);
            assert!(base.metrics.preemptions > 0, "the cell must exercise the online phase");
            for k in [1, 3] {
                let by = params.sched_period * k;
                let case = format!("{} {} moved {k} periods", cluster.name(), preempt.label());
                let moved = run(&shifted(&jobs, by));
                // What the base run predicts: the same run, every instant
                // `by` later.
                let mut want = base.clone();
                for t in &mut want.history.tasks {
                    t.planned_start += by;
                    t.finish += by;
                }
                for a in &mut want.schedule.assignments {
                    a.start += by;
                }
                let m = &mut want.metrics;
                m.end_time += by;
                m.first_start = m.first_start.map(|t| t + by);
                for j in &mut m.jobs {
                    j.arrival += by;
                    j.finish += by;
                    j.deadline += by;
                }
                assert_eq!(moved.history, want.history, "{case}: history");
                assert_eq!(moved.schedule, want.schedule, "{case}: plan");
                assert_eq!(moved.metrics, want.metrics, "{case}: metrics");
                assert_eq!(moved.metrics.makespan(), base.metrics.makespan(), "{case}");
                assert_eq!(
                    moved.metrics.throughput_tasks_per_ms(),
                    base.metrics.throughput_tasks_per_ms(),
                    "{case}"
                );
                assert_eq!(
                    moved.metrics.avg_job_waiting(),
                    base.metrics.avg_job_waiting(),
                    "{case}"
                );
            }
        }
    }
}
