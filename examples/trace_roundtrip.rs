//! Workload persistence: synthesize a trace-like job set, freeze it to
//! the versioned jobs artifact `dsp --dump-jobs` writes (the role the
//! May-2011 Google trace plays in the paper), reload it and verify the
//! rerun is bit-identical — the property that makes every figure in
//! EXPERIMENTS.md reproducible.
//!
//! ```text
//! cargo run --release --example trace_roundtrip
//! ```

use dsp_core::{config::Params, DspSystem};
use dsp_service::{codec, json};
use dsp_trace::{generate_workload, TraceParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let trace = TraceParams { task_scale: 0.06, ..TraceParams::default() };
    let jobs = generate_workload(&mut rng, 12, &trace);

    // Freeze.
    let path = std::env::temp_dir().join("dsp_workload.json");
    std::fs::write(&path, codec::jobs_to_artifact(&jobs).into_text()).expect("write temp file");
    let bytes = std::fs::metadata(&path).unwrap().len();
    println!("froze {} jobs ({} KiB) to {}", jobs.len(), bytes / 1024, path.display());

    // Thaw and verify.
    let text = std::fs::read_to_string(&path).expect("read back");
    let loaded = codec::jobs_from_artifact(&json::parse(&text).expect("parse")).expect("decode");
    // (`loaded == jobs` would be too strict: decoding rebuilds each DAG from
    // its edge list, which can order a task's parents differently.)
    let refrozen = codec::jobs_to_artifact(&loaded).into_text();
    assert_eq!(refrozen, text, "thawing and freezing again must give back the same bytes");

    // Same jobs ⇒ same simulation, run twice.
    let system = DspSystem::new(dsp_cluster::ec2(), Params::default());
    let a = system.run(&jobs);
    let b = system.run(&loaded);
    assert_eq!(a, b, "frozen workloads reproduce bit-identical metrics");
    println!(
        "rerun identical: makespan {:.2} s, {} preemptions, {} tasks",
        a.makespan().as_secs_f64(),
        a.preemptions,
        a.tasks_completed
    );
    let _ = std::fs::remove_file(&path);
}
