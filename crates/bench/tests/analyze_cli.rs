//! End-to-end exercise of `dsp analyze` through the real binary: exit
//! codes, JSON shape and waivers, each against a throwaway workspace
//! built on the spot. This is the CI gate's contract —
//! exit 0 only when the tree is clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dsp-analyze-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/sched/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n").unwrap();
    root
}

fn dsp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsp")).args(args).output().expect("spawn dsp")
}

fn analyze(root: &Path, extra: &[&str]) -> Output {
    let root_s = root.to_str().unwrap();
    let mut args = vec!["analyze", "--root", root_s];
    args.extend_from_slice(extra);
    dsp(&args)
}

#[test]
fn clean_tree_exits_zero() {
    let root = scratch("clean");
    fs::write(
        root.join("crates/sched/src/lib.rs"),
        "pub fn ok() -> std::collections::BTreeMap<u32, u32> { std::collections::BTreeMap::new() }\n",
    )
    .unwrap();
    let out = analyze(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn violation_exits_one_and_names_the_lint() {
    let root = scratch("dirty");
    fs::write(
        root.join("crates/sched/src/lib.rs"),
        "use std::collections::HashMap;\npub fn m() -> HashMap<u32, u32> { HashMap::new() }\n",
    )
    .unwrap();
    let out = analyze(&root, &[]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[D1]"), "human output must name the lint: {text}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_output_is_machine_parseable() {
    let root = scratch("json");
    fs::write(
        root.join("crates/sched/src/lib.rs"),
        "use std::collections::HashMap;\npub fn m() {}\n",
    )
    .unwrap();
    let out = analyze(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("UTF-8 on stdout");
    let v = dsp_service::json::parse(&text).expect("valid JSON on stdout");
    assert_eq!(v.get("version").and_then(|n| n.as_u64()), Some(1));
    let findings = v.get("findings").and_then(|f| f.as_arr()).expect("findings array");
    assert_eq!(findings[0].get("lint").and_then(|l| l.as_str()), Some("D1"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn lint_filter_narrows_but_w1_still_fires() {
    let root = scratch("filter");
    // A D1 violation plus a malformed waiver: `--lint D3` must hide the D1
    // but the W1 must surface anyway — a broken waiver is never filterable.
    fs::write(
        root.join("crates/sched/src/lib.rs"),
        "// dsp-allow: D1\nuse std::collections::HashMap;\npub fn m() {}\n",
    )
    .unwrap();
    let out = analyze(&root, &["--lint", "D3"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("[D1]"), "D1 should be filtered out: {text}");
    assert!(text.contains("[W1]"), "W1 must survive the filter: {text}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unknown_lint_id_is_usage_error() {
    let root = scratch("badlint");
    fs::write(root.join("crates/sched/src/lib.rs"), "pub fn ok() {}\n").unwrap();
    let out = analyze(&root, &["--lint", "Z9"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("Z9"), "stderr should echo the bad ID: {err}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn analyze_runs_clean_on_this_repo() {
    // The merge-state acceptance criterion, executed as a test: the tree
    // this test compiles from must itself pass the gate.
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let repo = here.parent().unwrap().parent().unwrap();
    let out = analyze(repo, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "dsp analyze found fresh violations in the repo:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
