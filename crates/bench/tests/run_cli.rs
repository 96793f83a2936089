//! `dsp` run mode through the real binary, pinned: every scheduler ×
//! preemption arm prints the same `--json` bytes whether or not it writes
//! its snapshot, the snapshot passes `dsp verify`, and the bytes themselves
//! are recorded (FNV-1a 64 of stdout) so a change to how the run is wired
//! shows up as a moved literal, not as an argument about equivalence.

use dsp_core::{ClusterProfile, PreemptMethod, SchedMethod};
use std::path::PathBuf;
use std::process::{Command, Output};

/// FNV-1a 64 of `dsp --jobs 20 --sched S --preempt P --json`'s stdout,
/// keyed by the two paper labels. Recorded at b21d6e4.
const RUN_PINS: &[(&str, &str, u64)] = &[
    ("DSP", "none", 0x5cdb76a6a8d1e446),
    ("DSP", "DSP", 0xf83623b6fbe2b10d),
    ("DSP", "DSPW/oPP", 0xb64fcf099bfa3f21),
    ("DSP", "Amoeba", 0xd73f3d50bf7f8592),
    ("DSP", "Natjam", 0xa0aa95a602c393ef),
    ("DSP", "SRPT", 0x7782651d8dea5b7f),
    ("DSP-ILP", "none", 0x5cdb76a6a8d1e446),
    ("DSP-ILP", "DSP", 0xf83623b6fbe2b10d),
    ("DSP-ILP", "DSPW/oPP", 0xb64fcf099bfa3f21),
    ("DSP-ILP", "Amoeba", 0xd73f3d50bf7f8592),
    ("DSP-ILP", "Natjam", 0xa0aa95a602c393ef),
    ("DSP-ILP", "SRPT", 0x7782651d8dea5b7f),
    ("TetrisW/oDep", "none", 0xb2d055545005cd3a),
    ("TetrisW/oDep", "DSP", 0x92a2dd253596f9fd),
    ("TetrisW/oDep", "DSPW/oPP", 0xa274b68e16385f2d),
    ("TetrisW/oDep", "Amoeba", 0xd708de8d05a9a7eb),
    ("TetrisW/oDep", "Natjam", 0xaf073df9ed063059),
    ("TetrisW/oDep", "SRPT", 0x6b29abf33a3be1c5),
    ("TetrisW/SimDep", "none", 0x00a39273fd344fc6),
    ("TetrisW/SimDep", "DSP", 0xabe6b9d468c3e826),
    ("TetrisW/SimDep", "DSPW/oPP", 0x397b3e6faafc898c),
    ("TetrisW/SimDep", "Amoeba", 0xa56e453f8e725a63),
    ("TetrisW/SimDep", "Natjam", 0x6844d9f25077b28c),
    ("TetrisW/SimDep", "SRPT", 0x1038bcd0032c9ab3),
    ("Aalo", "none", 0xfc3d8a929a24c0b0),
    ("Aalo", "DSP", 0x10cd7530f810fc92),
    ("Aalo", "DSPW/oPP", 0xe569716a62a1534a),
    ("Aalo", "Amoeba", 0x7123b15baafb30bd),
    ("Aalo", "Natjam", 0x6c9a7a6e97504bc7),
    ("Aalo", "SRPT", 0xc56770db69513aad),
    ("FIFO", "none", 0x5cdb76a6a8d1e446),
    ("FIFO", "DSP", 0xba8241c382c7e4be),
    ("FIFO", "DSPW/oPP", 0x57225f1dcd32eda2),
    ("FIFO", "Amoeba", 0x6b1f8cc48b14516c),
    ("FIFO", "Natjam", 0x7fa9de2f9e5d8c64),
    ("FIFO", "SRPT", 0xde32641b792a8b8a),
    ("Random", "none", 0x3d63cb382ca287b2),
    ("Random", "DSP", 0xa756a94697cbbb4a),
    ("Random", "DSPW/oPP", 0xd776520f93df0e6c),
    ("Random", "Amoeba", 0x59619d933e2b22d9),
    ("Random", "Natjam", 0x5104ab2a938ec098),
    ("Random", "SRPT", 0xacd821fbf68897c4),
];

/// FNV-1a 64 of `dsp --jobs 20 --preempt P --kill 3@400 --straggle
/// 7@500@0.4 --json`'s stdout (DSP offline), keyed by the policy's paper
/// label. Recorded at b21d6e4.
const FAULT_PINS: &[(&str, u64)] = &[
    ("none", 0x48e2bbbb926c7cbb),
    ("DSP", 0x37642073bd792d8f),
    ("DSPW/oPP", 0x22f0b6e65bc407f9),
    ("Amoeba", 0xdd40525603e6d1d1),
    ("Natjam", 0xb9ff6973159a34cf),
    ("SRPT", 0x25b80cf76df1bbba),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn dsp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsp")).args(args).output().expect("spawn dsp")
}

/// Run `dsp` and return its stdout; the run must exit 0.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = dsp(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "dsp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsp-run-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A path in `dir` as the command line takes it.
fn file_in(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn every_arm_prints_pinned_bytes_with_or_without_out_and_its_snapshot_verifies() {
    let dir = scratch("arms");
    let snapshot = file_in(&dir, "run.json");
    let mut moved = Vec::new();
    for sched in SchedMethod::ALL {
        for preempt in PreemptMethod::ALL {
            let arm =
                ["--jobs", "20", "--sched", sched.name(), "--preempt", preempt.name(), "--json"];
            let plain = stdout_of(&arm);
            let written = stdout_of(&[&arm[..], &["--out", &snapshot]].concat());
            let id = format!("{} + {}", sched.label(), preempt.label());
            assert_eq!(plain, written, "{id}: writing the snapshot changed the metrics");

            let mut verify = vec!["verify", "--snapshot", &snapshot];
            if !sched.dependency_aware() {
                verify.push("--dep-oblivious");
            }
            stdout_of(&verify);

            let got = fnv1a(&plain);
            let want = RUN_PINS
                .iter()
                .find(|(s, p, _)| *s == sched.label() && *p == preempt.label())
                .map(|&(_, _, h)| h);
            if want != Some(got) {
                moved.push(format!(
                    "    ({:?}, {:?}, {got:#018x}),",
                    sched.label(),
                    preempt.label()
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(moved.is_empty(), "run bytes moved; RUN_PINS would now read:\n{}", moved.join("\n"));
}

#[test]
fn fault_runs_print_pinned_bytes() {
    let mut moved = Vec::new();
    for preempt in PreemptMethod::ALL {
        let out = stdout_of(&[
            "--jobs",
            "20",
            "--preempt",
            preempt.name(),
            "--kill",
            "3@400",
            "--straggle",
            "7@500@0.4",
            "--json",
        ]);
        let got = fnv1a(&out);
        let want = FAULT_PINS.iter().find(|(p, _)| *p == preempt.label()).map(|&(_, h)| h);
        if want != Some(got) {
            moved.push(format!("    ({:?}, {got:#018x}),", preempt.label()));
        }
    }
    assert!(
        moved.is_empty(),
        "fault-run bytes moved; FAULT_PINS would now read:\n{}",
        moved.join("\n")
    );
}

/// A fault on a node the cluster lacks is a usage error naming its flag
/// (exit 2), not an out-of-bounds panic inside the engine (exit 101) —
/// including when `--cluster` comes after the fault.
#[test]
fn a_fault_on_a_missing_node_is_a_usage_error() {
    for (args, flag) in [
        (&["--jobs", "5", "--kill", "999@10"][..], "--kill"),
        (&["--jobs", "5", "--straggle", "999@10@0.5"], "--straggle"),
        (&["--jobs", "5", "--kill", "30@10", "--cluster", "ec2"], "--kill"),
    ] {
        let out = dsp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "dsp {args:?}:\n{stderr}");
        assert!(stderr.contains(flag), "dsp {args:?} must name {flag}:\n{stderr}");
    }
    // The last node is still a node.
    stdout_of(&["--jobs", "5", "--kill", "29@10", "--straggle", "29@20@0.5"]);
}

/// A malformed command line is a usage error (exit 2) whose first stderr
/// line names the flag, not the usage alone: in every verb, a value flag
/// whose value is missing or unreadable, a name no table knows, a flag the
/// verb does not read, and a number the run would otherwise bend without a
/// word — a scale outside (0, 1], a noise σ that is not finite or
/// negative, a straggle factor outside (0, 1].
#[test]
fn out_of_range_numbers_are_usage_errors() {
    let submit = ["submit", "--addr", "127.0.0.1:1", "--gen", "2"];
    let with = |head: &[&'static str], tail: [&'static str; 2]| [head, &tail].concat();
    let mut cases = Vec::new();
    for value in ["nan", "-1", "0", "inf", "1.5", "1e18"] {
        cases.push((with(&["--jobs", "4"], ["--scale", value]), "--scale"));
        cases.push((with(&["matrix", "--smoke"], ["--scale", value]), "--scale"));
        cases.push((with(&submit, ["--scale", value]), "--scale"));
    }
    for value in ["nan", "-0.1", "inf"] {
        cases.push((with(&["--jobs", "4"], ["--noise", value]), "--noise"));
        cases.push((with(&submit, ["--noise", value]), "--noise"));
    }
    for spec in ["1@10@nan", "1@10@-2", "1@10@0", "1@10@1.5"] {
        cases.push((with(&["--jobs", "4"], ["--straggle", spec]), "--straggle"));
    }

    // (a command line the flag completes, the flag, values it must refuse
    // besides a missing one)
    let addr = "127.0.0.1:1";
    let table: &[(&[&str], &str, &[&str])] = &[
        (&[], "--cluster", &["warp"]),
        (&[], "--jobs", &["x", "-1"]),
        (&[], "--seed", &["x"]),
        (&[], "--scale", &["x"]),
        (&[], "--noise", &["x"]),
        (&[], "--sched", &["warp", "tetris-dep"]),
        (&[], "--preempt", &["warp", "dsp-wopp"]),
        (&[], "--kill", &["3", "3@abc", "x@10"]),
        (&[], "--straggle", &["1@10", "1@x@0.5", "1@10@0.5@2"]),
        (&[], "--out", &[]),
        (&["verify"], "--snapshot", &[]),
        (&["submit", "--gen", "2"], "--addr", &[]),
        (&["submit", "--addr", addr], "--file", &[]),
        (&["submit", "--addr", addr], "--gen", &["x", "-1"]),
        (&submit, "--seed", &["x"]),
        (&submit, "--scale", &["x"]),
        (&submit, "--noise", &["x"]),
        (&["status", "--job", "0"], "--addr", &[]),
        (&["status", "--addr", addr], "--job", &["x", "-1"]),
        (&["metrics"], "--addr", &[]),
        (&["drain"], "--addr", &[]),
        (&["drain", "--addr", addr], "--out", &[]),
        (&["matrix", "--smoke"], "--seed", &["x"]),
        (&["matrix", "--smoke"], "--jobs", &["x"]),
        (&["matrix", "--smoke"], "--scale", &["x"]),
        (&["matrix", "--smoke"], "--out", &[]),
        (&["analyze"], "--lint", &["Z9"]),
        (&["analyze"], "--root", &[]),
    ];
    for &(line, flag, bad_values) in table {
        cases.push(([line, &[flag]].concat(), flag));
        for &bad in bad_values {
            cases.push(([line, &[flag, bad]].concat(), flag));
        }
    }
    // One flag each verb does not read.
    let verbs: [&[&str]; 8] = [
        &[],
        &["verify"],
        &["submit", "--addr", addr],
        &["status", "--addr", addr],
        &["metrics", "--addr", addr],
        &["drain", "--addr", addr],
        &["matrix"],
        &["analyze"],
    ];
    for verb in verbs {
        cases.push(([verb, &["--warp"]].concat(), "--warp"));
    }
    cases.push((vec!["metrics", "--addr", addr, "--job", "0"], "--job"));

    for (args, flag) in cases {
        let out = dsp(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(2), "dsp {args:?}:\n{stderr}");
        assert!(
            first.starts_with("dsp") && first.contains(flag),
            "dsp {args:?} must name {flag} before its usage:\n{stderr}"
        );
    }
    // Each range's closed end still runs.
    stdout_of(&["--jobs", "1", "--scale", "1", "--noise", "0", "--straggle", "1@10@1"]);
}

/// The run mode's three artifact flags and `verify`'s piecewise inputs are
/// gone, with no alias: each is an unknown flag (exit 2), named.
#[test]
fn the_retired_artifact_flags_are_unknown() {
    let snapshot = ["verify", "--snapshot", "missing.json"];
    let mut lines: Vec<Vec<&str>> = Vec::new();
    for flag in ["--dump-jobs", "--dump-schedule", "--dump-trace"] {
        lines.push(vec!["--jobs", "4", flag, "out.json"]);
    }
    for flag in ["--jobs", "--schedule", "--trace", "--cluster"] {
        lines.push(vec!["verify", flag, "ec2"]);
        lines.push([&snapshot[..], &[flag, "ec2"]].concat());
    }
    for args in lines {
        let flag = args.iter().rev().nth(1).expect("a flag");
        let out = dsp(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(2), "dsp {args:?}:\n{stderr}");
        assert_eq!(first, format!("dsp: unknown flag `{flag}`"), "dsp {args:?}");
    }
}

/// `dsp verify` reads only this build's artifact: a version-1 snapshot
/// exits 2 naming both versions, a version-2 file of another kind (the
/// jobs, schedule and trace files the run mode once wrote) exits 2 naming
/// its kind, and a snapshot whose column tables disagree in length exits 2
/// naming the column.
#[test]
fn verify_refuses_other_formats_kinds_and_ragged_columns() {
    use dsp_service::codec::FORMAT_VERSION;
    use dsp_service::json::{parse, Json};

    let dir = scratch("format");
    let snapshot = file_in(&dir, "run.json");
    stdout_of(&["--jobs", "8", "--out", &snapshot]);
    stdout_of(&["verify", "--snapshot", &snapshot]);
    let text = std::fs::read_to_string(&snapshot).expect("read the snapshot");

    // `text` with its one `from` replaced by `to`, written beside it.
    let edited = |name: &str, from: &str, to: &str| {
        assert_eq!(text.matches(from).count(), 1, "{snapshot} holds {from} once");
        let file = file_in(&dir, name);
        std::fs::write(&file, text.replace(from, to)).expect("write an edited snapshot");
        file
    };
    let refused = |file: &str, words: &[&str]| {
        let out = dsp(&["verify", "--snapshot", file]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "dsp verify --snapshot {file}:\n{stderr}");
        for word in words {
            assert!(
                stderr.contains(word),
                "dsp verify --snapshot {file} must name {word}:\n{stderr}"
            );
        }
    };
    assert_eq!(FORMAT_VERSION, 2);
    let v1 = edited("v1.json", "\"format_version\":2", "\"format_version\":1");
    refused(&v1, &["format_version 1", "version 2"]);
    for kind in ["jobs", "schedule", "trace"] {
        let other = edited(
            &format!("{kind}.json"),
            "\"kind\":\"snapshot\"",
            &format!("\"kind\":\"{kind}\""),
        );
        refused(&other, &[&format!("kind '{kind}'"), "dsp --out"]);
    }

    let Json::Obj(mut top) = parse(&text).expect("parse the snapshot") else {
        panic!("a snapshot is an object")
    };
    let Some(Json::Obj(history)) = top.get_mut("history") else { panic!("history") };
    let Some(Json::Obj(tasks)) = history.get_mut("tasks") else { panic!("history.tasks") };
    let Some(Json::Arr(column)) = tasks.get_mut("planned_start") else { panic!("a column") };
    column.pop();
    let ragged = file_in(&dir, "ragged.json");
    std::fs::write(&ragged, Json::Obj(top).to_string()).expect("write the ragged snapshot");
    refused(&ragged, &["history.tasks", "'planned_start'"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot records the cluster a run ran on, so `verify` audits a
/// palmetto run against palmetto: R1–R6 over the run, 0 errors.
#[test]
fn a_palmetto_run_verifies_against_its_own_cluster() {
    let dir = scratch("palmetto");
    let snapshot = file_in(&dir, "run.json");
    stdout_of(&["--cluster", "palmetto", "--seed", "7", "--jobs", "20", "--out", &snapshot]);
    let report = String::from_utf8(stdout_of(&["verify", "--snapshot", &snapshot])).unwrap();
    assert!(report.ends_with("assignments checked: 0 errors, 0 warnings\n"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `--scale`, a run takes its profile's figure scale, so a
/// palmetto figure cell re-runs as `dsp --cluster palmetto`; `--scale`
/// still overrides it.
#[test]
fn run_mode_defaults_to_the_profile_figure_scale() {
    let banner = |args: &[&str]| {
        let out = String::from_utf8(stdout_of(args)).expect("utf-8 banner");
        out.lines().next().expect("a banner line").to_string()
    };
    for (args, scale) in [
        (&["--cluster", "palmetto", "--jobs", "2"][..], "(scale 0.2,"),
        (&["--cluster", "palmetto", "--jobs", "2", "--scale", "0.06"][..], "(scale 0.06,"),
        (&["--cluster", "ec2", "--jobs", "2"][..], "(scale 0.06,"),
    ] {
        let line = banner(args);
        assert!(line.contains(scale), "dsp {args:?}: {line}");
    }
}

/// `dsp verify --json` names each rule by its stable id and each severity
/// as the text report does. TetrisW/oDep plans children before their
/// parents finish: 832 R2 findings at this seed, errors (exit 1) unless
/// `--dep-oblivious` makes them warnings (exit 0).
#[test]
fn verify_json_names_rules_by_id() {
    use dsp_service::json::{parse, Json};

    let dir = scratch("json");
    let snapshot = file_in(&dir, "run.json");
    stdout_of(&["--sched", "tetris-wo-dep", "--jobs", "8", "--out", &snapshot]);
    for (extra, code, severity) in [(None, 1, "error"), (Some("--dep-oblivious"), 0, "warning")] {
        let mut args = vec!["verify", "--snapshot", &snapshot, "--json"];
        args.extend(extra);
        let out = dsp(&args);
        assert_eq!(out.status.code(), Some(code), "dsp {args:?}");
        let doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("verify --json is JSON");
        let diagnostics = doc.get("diagnostics").and_then(Json::as_arr).expect("diagnostics");
        assert_eq!(diagnostics.len(), 832, "dsp {args:?}");
        for d in diagnostics {
            assert_eq!(d.get("rule").and_then(Json::as_str), Some("R2"), "dsp {args:?}");
            assert_eq!(d.get("severity").and_then(Json::as_str), Some(severity), "dsp {args:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reproduce` refuses what it cannot do — a word that selects no figure,
/// an unknown flag, a `--csv` without its DIR or with a DIR it cannot
/// create — with exit 2 and the word named, before printing anything.
#[test]
fn reproduce_refuses_what_it_cannot_do() {
    let dir = scratch("reproduce");
    let file = dir.join("file");
    std::fs::write(&file, "").expect("write scratch file");
    let blocked = file.join("csv").to_str().expect("utf-8 temp path").to_string();
    for (args, word) in [
        (&["fig9"][..], "fig9"),
        (&["--qiuck", "fig9"], "--qiuck"),
        (&["--quick", "fig5a", "--csv"], "--csv"),
        (&["--quick", "fig5a", "--csv", &blocked], "--csv"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("spawn reproduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(2), "reproduce {args:?}:\n{stderr}");
        assert!(first.contains(word), "reproduce {args:?} must name {word}:\n{stderr}");
        assert!(out.stdout.is_empty(), "reproduce {args:?} printed before refusing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `reproduce` word selects every figure whose name it begins or extends,
/// ablations included: `abl` runs all five ablations, `ablation_rho` one.
#[test]
fn reproduce_words_select_ablations_like_figures() {
    for (word, ids) in [
        (
            "abl",
            &[
                "ablation_rho_preemptions",
                "ablation_rho_throughput",
                "ablation_gamma_wait",
                "ablation_gamma_makespan",
                "ablation_delta_preemptions",
                "ablation_delta_throughput",
                "ablation_noise_makespan",
                "ablation_checkpoint",
            ][..],
        ),
        ("ablation_rho", &["ablation_rho_preemptions", "ablation_rho_throughput"]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["--quick", word])
            .output()
            .expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(0), "reproduce --quick {word}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let printed: Vec<&str> = stdout
            .lines()
            .filter_map(|line| line.strip_prefix("### "))
            .map(|heading| heading.split(' ').next().unwrap_or_default())
            .collect();
        assert_eq!(printed, ids, "reproduce --quick {word}");
    }
}

/// One spelling, one meaning, everywhere: `dsp`'s usage text prints every
/// name of the method table (`dspd`'s is checked beside its parser, in
/// `dsp_service::cli`), the service factories build exactly the
/// names the table resolves, and `dsp` runs what the table says a name is.
#[test]
fn the_method_table_is_what_every_binary_parses_and_prints() {
    let names: Vec<&str> = (SchedMethod::ALL.iter().map(|m| m.name()))
        .chain(PreemptMethod::ALL.iter().map(|m| m.name()))
        .chain(ClusterProfile::ALL.iter().map(|p| p.name()))
        .collect();
    let out = dsp(&["--help"]);
    assert_eq!(out.status.code(), Some(2), "dsp --help");
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    for name in &names {
        assert!(usage.contains(name), "dsp --help usage lacks `{name}`:\n{usage}");
    }
    let params = dsp_core::Params::default();
    for name in names.iter().chain(&["dsp", "tetris-dep", "tetris-wodep", "dsp-wopp", "warp"]) {
        assert_eq!(
            dsp_service::build_scheduler(name).is_some(),
            SchedMethod::from_name(name).is_some(),
            "{name}"
        );
        assert_eq!(
            dsp_service::build_policy(name, &params).is_some(),
            PreemptMethod::from_name(name).is_some(),
            "{name}"
        );
    }
    // The one CLI-visible meaning that moved (`tetris` is W/SimDep), and the
    // profile `dsp` could not name before.
    let header = stdout_of(&["--sched", "tetris", "--cluster", "blend", "--jobs", "4"]);
    assert!(String::from_utf8_lossy(&header).starts_with("TetrisW/SimDep + DSP on blend"));
}
