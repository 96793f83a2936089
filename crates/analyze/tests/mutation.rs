//! Mutation tests: prove the gate *bites*. A fresh, unwaivered violation
//! dropped into an otherwise-clean workspace must surface as a fresh
//! finding (the CLI maps that to exit 1); adding a well-formed waiver must
//! silence it; a malformed waiver must itself be a W1 finding and must NOT
//! silence the violation it sits above. If any of these stop holding, the
//! CI job is green for the wrong reason.

use std::fs;
use std::path::PathBuf;

use dsp_analyze::lints::LintId;
use dsp_analyze::{analyze_workspace, Options};

/// Build a minimal-but-real workspace layout under the OS temp dir:
/// `Cargo.toml` with `[workspace]` at the root, one deterministic crate
/// (`sched`) with the given source as its `lib.rs`.
fn workspace_with(name: &str, sched_lib: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dsp-analyze-mut-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/sched/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n").unwrap();
    fs::write(src.join("lib.rs"), sched_lib).unwrap();
    root
}

const VIOLATION: &str =
    "use std::collections::HashMap;\npub fn m() -> HashMap<u32, u32> { HashMap::new() }\n";

#[test]
fn unwaivered_violation_is_a_fresh_finding() {
    let root = workspace_with("fresh", VIOLATION);
    let a = analyze_workspace(&root, &Options::default()).unwrap();
    assert!(
        a.findings.iter().any(|f| f.lint == LintId::D1),
        "expected a fresh D1 finding, got {:?}",
        a.findings
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn well_formed_waiver_silences_the_violation() {
    // A waiver covers the next line only, so the violation sits on one line.
    let src = "// dsp-allow: D1 — fixture map is never iterated, only probed\n\
               pub fn m() -> std::collections::HashMap<u32, u32> { std::collections::HashMap::new() }\n";
    let root = workspace_with("waived", src);
    let a = analyze_workspace(&root, &Options::default()).unwrap();
    assert!(a.findings.is_empty(), "waivered violation still reported: {:?}", a.findings);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn malformed_waiver_is_w1_and_does_not_silence() {
    // Missing the `— reason` clause: the waiver is rejected, reported as
    // W1, and the D1 underneath still fires.
    let src = format!("// dsp-allow: D1\n{VIOLATION}");
    let root = workspace_with("malformed", &src);
    let a = analyze_workspace(&root, &Options::default()).unwrap();
    assert!(
        a.findings.iter().any(|f| f.lint == LintId::W1),
        "malformed waiver not reported as W1: {:?}",
        a.findings
    );
    assert!(
        a.findings.iter().any(|f| f.lint == LintId::D1),
        "malformed waiver silently suppressed the violation: {:?}",
        a.findings
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unknown_lint_id_in_waiver_is_w1() {
    let src = format!("// dsp-allow: Z9 — no such lint\n{VIOLATION}");
    let root = workspace_with("unknown-id", &src);
    let a = analyze_workspace(&root, &Options::default()).unwrap();
    assert!(
        a.findings.iter().any(|f| f.lint == LintId::W1),
        "unknown lint ID in waiver must be W1: {:?}",
        a.findings
    );
    let _ = fs::remove_dir_all(&root);
}

/// C2 on `std::sync` locks: the service recovers poisoned guards with
/// `.unwrap_or_else(PoisonError::into_inner)`, and a guard obtained that
/// way is as live as one from `.unwrap()`. Dropping the shard-owner
/// mistake into `crates/service` must turn the gate red; the documented
/// fix (release, then send) must turn it green again.
#[test]
fn guard_recovered_from_poison_across_a_send_is_a_fresh_c2() {
    let root = workspace_with("c2-recovered", "pub fn ok() {}\n");
    let shard = root.join("crates/service/src/shard.rs");
    fs::create_dir_all(shard.parent().unwrap()).unwrap();
    fs::write(&shard, include_str!("fixtures/c2_shard_bad.rs")).unwrap();
    let red = analyze_workspace(&root, &Options::default()).unwrap();
    assert!(
        red.findings.iter().any(|f| f.lint == LintId::C2 && f.path.ends_with("shard.rs")),
        "guard held through the recovery idiom passed silently: {:?}",
        red.findings
    );
    fs::write(&shard, include_str!("fixtures/c2_shard_good.rs")).unwrap();
    let green = analyze_workspace(&root, &Options::default()).unwrap();
    assert!(green.findings.is_empty(), "the fix is still reported: {:?}", green.findings);
    let _ = fs::remove_dir_all(&root);
}
