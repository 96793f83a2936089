//! Workload persistence: run a trace-like job set, freeze the run to the
//! snapshot `dsp --out` writes — the cluster, the jobs (the role the
//! May-2011 Google trace plays in the paper), the plan, the history and
//! the metrics — thaw it, and rerun the thawed jobs on the thawed cluster.
//! The rerun freezes to the same bytes: the property that makes every
//! figure in EXPERIMENTS.md reproducible.
//!
//! ```text
//! cargo run --release --example trace_roundtrip
//! ```

use dsp_core::cluster::ClusterSpec;
use dsp_core::dag::Job;
use dsp_core::sim::FaultPlan;
use dsp_core::{execute, Params, PreemptMethod, Run, SchedMethod};
use dsp_service::codec::Snapshot;
use dsp_service::json;
use dsp_trace::{generate_workload, TraceParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's pipeline, DSP offline and DSP preemption online, as a
/// snapshot of the run.
fn run(cluster: ClusterSpec, jobs: Vec<Job>) -> Snapshot {
    let params = Params::default();
    let mut sched = SchedMethod::Dsp.build(&params, 0);
    let mut policy = PreemptMethod::Dsp.build(&params);
    let Run { schedule, history, metrics } =
        execute(&jobs, &cluster, &params, sched.as_mut(), policy.as_mut(), FaultPlan::none());
    Snapshot { cluster, jobs, schedule, history, metrics }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let trace = TraceParams { task_scale: 0.06, ..TraceParams::default() };
    let first = run(dsp_cluster::ec2(), generate_workload(&mut rng, 12, &trace));

    // Freeze.
    let path = std::env::temp_dir().join("dsp_run.json");
    std::fs::write(&path, first.to_json().into_text()).expect("write temp file");
    let bytes = std::fs::metadata(&path).unwrap().len();
    println!(
        "froze a run of {} jobs ({} KiB) to {}",
        first.jobs.len(),
        bytes / 1024,
        path.display()
    );

    // Thaw, audit, rerun.
    let text = std::fs::read_to_string(&path).expect("read back");
    let thawed = Snapshot::from_json(&json::parse(&text).expect("parse")).expect("decode");
    let report = thawed.verify();
    assert!(report.passes(), "the thawed run audits clean (R1-R6):\n{report}");
    let again = run(thawed.cluster, thawed.jobs);
    assert_eq!(again.metrics, first.metrics, "frozen workloads reproduce bit-identical metrics");
    assert_eq!((&again.schedule, &again.history), (&thawed.schedule, &thawed.history));
    // (`again.jobs == first.jobs` would be too strict: decoding rebuilds each
    // DAG from its edge list, which can order a task's parents differently.)
    let refrozen = again.to_json().into_text();
    assert_eq!(refrozen, text, "the rerun must freeze to the same bytes");
    println!(
        "rerun identical: makespan {:.2} s, {} preemptions, {} tasks",
        again.metrics.makespan().as_secs_f64(),
        again.metrics.preemptions,
        again.metrics.tasks_completed
    );
    let _ = std::fs::remove_file(&path);
}
