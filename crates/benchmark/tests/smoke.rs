//! Drives the built `dsp-benchmark` binary: a `--quick` run of every
//! workload, untraced and traced, and the output contract on what it
//! prints.

use dsp_service::json::{self, Json};
use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_dsp-benchmark");

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json is JSON")
}

/// `(name, <field>)` of every entry of one of the manifest's lists.
fn entries(manifest: &Json, list: &str, field: &str) -> Vec<(String, String)> {
    let text = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
    let list = manifest.get(list).and_then(Json::as_arr).unwrap();
    list.iter().map(|e| (text(e, "name"), text(e, field))).collect()
}

/// Run one workload the way the driver does and return the last line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(BIN)
        .args([
            "run",
            "--quick",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
        ])
        .output()
        .expect("start dsp-benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    json::parse(stdout.lines().last().expect("a last line")).expect("the last line is JSON")
}

#[test]
fn quick_run_of_every_workload_prints_exactly_the_manifests_metrics() {
    let manifest = manifest();
    let workloads = entries(&manifest, "workloads", "why");
    assert_eq!(workloads.len(), 5);
    let started = Instant::now();
    for (workload, _) in &workloads {
        for (trace, key, limit) in [("0", "end_to_end", 16), ("1", "per_layer", 128)] {
            let line = run(workload, trace);
            let Json::Obj(top) = &line else { panic!("{line}") };
            let keys: BTreeSet<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, BTreeSet::from(["attempted", "correct", "failed", "metrics"]));
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0), "{workload}");
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);

            let expected = entries(&manifest, key, "unit");
            assert!(expected.len() <= limit);
            let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("{line}") };
            let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let listed: BTreeSet<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed, listed, "{workload} --trace {trace}");
            for (name, unit) in &expected {
                assert!(
                    name.len() <= 64
                        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                let m = &metrics[name];
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                assert!(value.is_finite(), "{workload} {name}");
                // An end-to-end metric is never 0: its bound is a share of it.
                assert!(key == "per_layer" || value > 0.0, "{workload} {name} = {value}");
            }
        }
    }
    // Ten seconds for the optimised build; the unoptimised one `cargo test`
    // drives also runs the engine's debug self-checks.
    let limit = if cfg!(debug_assertions) { 60.0 } else { 10.0 };
    let took = started.elapsed().as_secs_f64();
    assert!(took < limit, "quick runs took {took:.1} s");
}

#[test]
fn a_bad_invocation_exits_2_and_prints_no_result() {
    for args in [&["run", "--workload", "nope"][..], &["run", "--trace"], &["frobnicate"], &[]] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
