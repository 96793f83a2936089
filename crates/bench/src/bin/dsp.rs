//! `dsp` — run one experiment, verify its snapshot, or talk to a running
//! `dspd` service, from the command line. The usage text (`dsp
//! --help`) is generated from [`VERBS`], the table `main` dispatches on;
//! every verb reads its flags with `dsp_core::flags`, so a malformed
//! command line exits 2 naming the word it could not read.
//!
//! `dsp matrix` runs the scenario-grid evaluation rig (DESIGN.md §13):
//! every scheduler × preemption arm across execution-time models, arrival
//! patterns, deadline tiers, node mixes and failure storms. It prints one
//! CSV comparison table (stdout, or `DIR/matrix.csv` with `--out`) and,
//! with `--out`, writes each cell's verified snapshot artifact to
//! `DIR/cells/<cell>.json` — every one replayable through
//! `dsp verify --snapshot`. The run is bit-identical per `--seed`; it
//! exits 1 if any cell fails R1–R6 verification.
//!
//! There is one artifact, the snapshot (`dsp_service::codec::Snapshot`):
//! the cluster a run ran on, its jobs, plan, execution history and
//! metrics. The run mode (`--out FILE`), each matrix cell and `dsp drain`
//! write it; `dsp verify --snapshot FILE` reads it. It is versioned JSON:
//! every file carries a `format_version` stamp and a `kind`, and `dsp
//! verify` exits 2 with a clear message when handed a version this build
//! does not read or a kind other than `snapshot`. Format 2 writes
//! the per-task tables (a job's `tasks`, the assignments, `history.tasks`)
//! as objects of named columns, one array per field; `dsp verify` exits 2
//! naming the table, column and row of a cell it cannot read, and names a
//! column whose length differs from its table's others.
//!
//! Method and cluster names are `dsp-core`'s method table's (the usage
//! text is generated from it): `tetris` is TetrisW/SimDep, `tetris-wo-dep`
//! the dependency-oblivious variant, `dsp` the list scheduler `dsp-list`.
//!
//! The run mode is one `dsp_core::run_audited` call, as every figure and
//! matrix cell is. It prints the run's headline metrics (or the full
//! metrics as JSON), can write its snapshot, and reports its audit:
//! `verified (R1-R6)` or the findings go to stderr, and an error-severity
//! finding exits 1. The `verify` subcommand replays
//! `dsp-verify`'s rules R1–R6 over a snapshot, against the cluster it
//! records, and exits 0 when no rule reports an error, 1 when one does, 2
//! on usage errors.

use dsp_core::cluster::{ClusterSpec, NodeId};
use dsp_core::dag::Job;
use dsp_core::flags::{usage_error, Flags};
use dsp_core::sim::{Fault, FaultPlan};
use dsp_core::trace::{generate_workload, TraceParams};
use dsp_core::units::Time;
use dsp_core::verify::{Diagnostic, Report, Severity, VerifyOptions};
use dsp_core::{run_audited, ClusterProfile, FigureScale, Params, PreemptMethod, Run, SchedMethod};
use dsp_service::json::Json;
use dsp_service::{codec, wire, Client};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;

/// A verb's entry point: its flags in, its exit code or a usage error out.
type Main = fn(&[String]) -> Result<i32, String>;

/// Every verb: its name, its usage forms and its entry point. The first
/// row, unnamed, is the run mode: what `dsp` does when no verb is named.
const VERBS: &[(&str, &[&str], Main)] = &[
    (
        "",
        &["[--cluster {clusters}] [--jobs N] [--seed S] [--scale F] [--sched {scheds}] \
           [--preempt {preempts}] [--noise SIGMA] [--kill NODE@SECS]... \
           [--straggle NODE@SECS@FACTOR]... [--out FILE] [--json]"],
        run_main,
    ),
    ("verify", &["--snapshot FILE [--dep-oblivious] [--no-deadlines] [--json]"], verify_main),
    ("submit", &["--addr HOST:PORT (--file FILE | --gen N [--seed S] [--scale F])"], submit_main),
    ("status", &["--addr HOST:PORT --job ID"], |argv| read_main("status", argv)),
    ("metrics", &["--addr HOST:PORT"], |argv| read_main("metrics", argv)),
    ("drain", &["--addr HOST:PORT [--out SNAPSHOT_FILE]"], drain_main),
    (
        "matrix",
        &["[--quick|--smoke|--full] [--seed S] [--jobs N] [--scale F] [--out DIR] [--no-artifacts]"],
        matrix_main,
    ),
    ("analyze", &["[--json] [--lint ID]... [--root DIR]"], analyze_main),
];

/// One line per usage form of every verb, the method table's names filled in.
fn usage() -> String {
    let lines: Vec<String> = VERBS
        .iter()
        .flat_map(|&(verb, forms, _)| {
            let name = if verb.is_empty() { "dsp".to_string() } else { format!("dsp {verb}") };
            forms.iter().map(move |form| format!("{name} {form}"))
        })
        .collect();
    format!("usage: {}", lines.join("\n       "))
        .replace("{clusters}", &ClusterProfile::usage())
        .replace("{scheds}", &SchedMethod::usage())
        .replace("{preempts}", &PreemptMethod::usage())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (entry, args) =
        match VERBS[1..].iter().find(|(verb, ..)| argv.first().is_some_and(|a| a == verb)) {
            Some(&(_, _, entry)) => (entry, &argv[1..]),
            None => (VERBS[0].2, &argv[..]),
        };
    std::process::exit(entry(args).unwrap_or_else(|msg| usage_error("dsp", &msg, &usage())))
}

/// Report a failure that is not the command line's, and exit 2.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("dsp: {msg}");
    std::process::exit(2)
}

/// A `--scale` value: task counts are multiplied by it, and 1 is the
/// paper's full size.
fn scale(flags: &mut Flags) -> Result<f64, String> {
    flags.read("a number in (0, 1]", |s| s.parse().ok().filter(|&s: &f64| s > 0.0 && s <= 1.0))
}

/// A `--noise` value: the σ of the estimate noise.
fn noise(flags: &mut Flags) -> Result<f64, String> {
    flags.read("a finite number ≥ 0", |s| {
        s.parse().ok().filter(|&s: &f64| s.is_finite() && s >= 0.0)
    })
}

/// The generated workload the run mode runs and `dsp submit --gen` sends.
fn workload(jobs: usize, seed: u64, task_scale: f64, noise: f64) -> Vec<Job> {
    let trace = TraceParams { task_scale, estimate_noise_sigma: noise, ..TraceParams::default() };
    generate_workload(&mut StdRng::seed_from_u64(seed), jobs, &trace)
}

/// Write an artifact to `path`; exit 2 when it cannot.
fn write_artifact(path: &str, artifact: &Json) {
    // Straight from the encoder's buffer to the file: no copy of the text.
    let written = std::fs::File::create(path).and_then(|mut f| writeln!(f, "{artifact}"));
    if let Err(e) = written {
        die(format!("cannot write {path}: {e}"))
    }
}

/// Write one run as its snapshot: the cluster it ran on, its jobs, plan,
/// history and metrics. The run mode and each matrix cell write this way.
fn write_snapshot(path: &str, cluster: ClusterSpec, jobs: Vec<Job>, run: Run) {
    let Run { schedule, history, metrics } = run;
    write_artifact(path, &codec::Snapshot { cluster, jobs, schedule, history, metrics }.to_json());
}

/// Load and parse a JSON artifact file; exit 2 on I/O or syntax errors.
fn read_artifact(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot open {path}: {e}")));
    dsp_service::json::parse(&text).unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
}

// ----------------------------------------------------------------- run mode

fn run_main(argv: &[String]) -> Result<i32, String> {
    let mut cluster = ClusterProfile::Ec2;
    let mut jobs = 45;
    let mut seed = 2018;
    let mut task_scale = None;
    let mut sched = SchedMethod::Dsp;
    let mut preempt = PreemptMethod::Dsp;
    let mut sigma = 0.4;
    let mut faults = FaultPlan::none();
    let mut out = None;
    let mut json = false;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--cluster" => cluster = flags.read("a cluster", ClusterProfile::from_name)?,
            "--jobs" => jobs = flags.value()?,
            "--seed" => seed = flags.value()?,
            "--scale" => task_scale = Some(scale(&mut flags)?),
            "--noise" => sigma = noise(&mut flags)?,
            "--sched" => sched = flags.read("a scheduler", SchedMethod::from_name)?,
            "--preempt" => preempt = flags.read("a policy", PreemptMethod::from_name)?,
            "--kill" => {
                let (node, at) = flags.read("NODE@SECS", |s| {
                    let (node, at) = s.split_once('@')?;
                    Some((node.parse().ok()?, at.parse().ok()?))
                })?;
                faults = faults.kill(NodeId(node), Time::from_secs(at));
            }
            "--straggle" => {
                let (node, at, factor) = flags.read("NODE@SECS@FACTOR, FACTOR in (0, 1]", |s| {
                    let [node, at, factor] = s.split('@').collect::<Vec<_>>()[..] else {
                        return None;
                    };
                    let factor = factor.parse().ok().filter(|&f: &f64| f > 0.0 && f <= 1.0)?;
                    Some((node.parse().ok()?, at.parse().ok()?, factor))
                })?;
                faults = faults.straggle(NodeId(node), Time::from_secs(at), factor);
            }
            "--out" => out = Some(flags.text()?),
            "--json" => json = true,
            _ => return Err(flags.unknown()),
        }
    }
    // The engine indexes its node table with these ids: a node the cluster
    // lacks is a usage error, not a panic mid-run.
    let spec = cluster.build();
    let nodes = spec.len();
    for fault in &faults.faults {
        let node = fault.node().0;
        if node as usize >= nodes {
            let flag = match fault {
                Fault::NodeDown { .. } => "--kill",
                Fault::SlowDown { .. } => "--straggle",
            };
            let name = cluster.name();
            return Err(format!("{flag}: no node {node} in the {name} cluster (nodes 0..{nodes})"));
        }
    }

    // Without `--scale`, the profile runs at its figures' scale.
    let task_scale = task_scale.unwrap_or_else(|| FigureScale::paper().task_scale(cluster));
    let work = workload(jobs, seed, task_scale, sigma);
    let params = Params::default();
    let mut policy = preempt.build(&params);
    let (run, report) = run_audited(&work, &spec, &params, sched, seed, policy.as_mut(), faults);
    let metrics = &run.metrics;
    if json {
        println!("{}", codec::metrics_to_json(metrics));
    } else {
        println!(
            "{} + {} on {} — {jobs} jobs (scale {task_scale}, seed {seed})",
            sched.label(),
            preempt.label(),
            cluster.label(),
        );
        println!("  makespan           {:>12.2} s", metrics.makespan().as_secs_f64());
        println!("  throughput         {:>12.4} tasks/ms", metrics.throughput_tasks_per_ms());
        println!("  avg job waiting    {:>12.2} s", metrics.avg_job_waiting().as_secs_f64());
        println!("  p90 job waiting    {:>12.2} s", metrics.wait_percentile(90.0).as_secs_f64());
        println!("  preempt attempts   {:>12}", metrics.preemption_attempts());
        println!("  disorders          {:>12}", metrics.disorders);
        println!("  deadline hit rate  {:>11.0}%", metrics.deadline_hit_rate() * 100.0);
        println!("  node failures      {:>12}", metrics.node_failures);
    }

    if let Some(path) = out {
        write_snapshot(path, spec, work, run);
    }
    if !report.passes() {
        eprint!("{report}");
        return Ok(1);
    }
    eprintln!("dsp: verified (R1-R6)");
    Ok(0)
}

// ------------------------------------------------------------------- verify

fn report_to_json(report: &Report) -> Json {
    let diagnostic = |d: &Diagnostic| {
        Json::obj(vec![
            ("rule", Json::Str(d.rule.id().into())),
            ("severity", Json::Str(d.severity.to_string())),
            ("task", d.task.map_or(Json::Null, |t| Json::Str(format!("T{}.{}", t.job.0, t.index)))),
            ("node", d.node.map_or(Json::Null, |n| Json::U64(u64::from(n.0)))),
            ("at_us", d.at.map_or(Json::Null, |t| Json::U64(t.as_micros()))),
            ("message", Json::Str(d.message.clone())),
        ])
    };
    let diagnostics = Json::Arr(report.iter().map(diagnostic).collect());
    Json::obj(vec![("passes", Json::Bool(report.passes())), ("diagnostics", diagnostics)])
}

fn verify_main(argv: &[String]) -> Result<i32, String> {
    let mut path = None;
    let mut opts = VerifyOptions::default();
    let mut json = false;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--snapshot" => path = Some(flags.text()?),
            "--dep-oblivious" => opts.dependency_aware = false,
            "--no-deadlines" => opts.check_deadlines = false,
            "--json" => json = true,
            _ => return Err(flags.unknown()),
        }
    }
    let path = path.ok_or("verify needs --snapshot FILE")?;
    // Version and kind mismatches and shape errors, like I/O and syntax
    // errors, exit 2.
    let codec::Snapshot { cluster, jobs, schedule, history, .. } =
        codec::Snapshot::from_json(&read_artifact(path))
            .unwrap_or_else(|e| die(format!("cannot decode {path}: {e}")));
    if let Err(e) = dsp_core::dag::validate_jobs(&jobs) {
        die(format!("invalid jobs in {path}: {e}"))
    }
    let report = dsp_core::verify::audit(&schedule, &jobs, &cluster, &opts, &history, None);
    if json {
        println!("{}", report_to_json(&report));
    } else {
        print!("{report}");
        let errors = report.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = report.len() - errors;
        println!("{} assignments checked: {errors} errors, {warnings} warnings", schedule.len());
    }
    Ok(if report.passes() { 0 } else { 1 })
}

// ------------------------------------------------------------------- matrix

fn matrix_main(argv: &[String]) -> Result<i32, String> {
    use dsp_core::matrix::{to_csv, MatrixConfig};
    let mut kind = "quick";
    let mut seed = 2018u64;
    let mut out_dir: Option<&str> = None;
    let mut jobs_override: Option<usize> = None;
    let mut scale_override: Option<f64> = None;
    let mut artifacts = true;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--quick" => kind = "quick",
            "--smoke" => kind = "smoke",
            "--full" => kind = "full",
            "--seed" => seed = flags.value()?,
            "--jobs" => jobs_override = Some(flags.value()?),
            "--scale" => scale_override = Some(scale(&mut flags)?),
            "--out" => out_dir = Some(flags.text()?),
            "--no-artifacts" => artifacts = false,
            _ => return Err(flags.unknown()),
        }
    }
    let mut cfg = match kind {
        "smoke" => MatrixConfig::smoke(seed),
        "full" => MatrixConfig::full(seed),
        _ => MatrixConfig::quick(seed),
    };
    if let Some(j) = jobs_override {
        cfg.num_jobs = j;
    }
    if let Some(s) = scale_override {
        cfg.task_scale = s;
    }
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(format!("{dir}/cells")) {
            die(format!("cannot create {dir}/cells: {e}"))
        }
    }
    eprintln!("dsp matrix: {} grid, {} cells, seed {seed}", kind, cfg.num_cells());
    let mut failed: Vec<String> = Vec::new();
    let rows = dsp_core::run_matrix(&cfg, |cell| {
        if !cell.report.passes() {
            failed.push(cell.cell_id());
            eprintln!("dsp matrix: cell {} FAILED verification:\n{}", cell.cell_id(), cell.report);
        }
        if artifacts {
            if let Some(dir) = out_dir {
                let run = Run {
                    schedule: cell.schedule.clone(),
                    history: cell.history.clone(),
                    metrics: cell.metrics.clone(),
                };
                let path = format!("{dir}/cells/{}.json", cell.cell_id());
                write_snapshot(&path, cell.cluster.clone(), cell.jobs.clone(), run);
            }
        }
    });
    let csv = to_csv(&rows);
    match out_dir {
        Some(dir) => {
            let path = format!("{dir}/matrix.csv");
            if let Err(e) = std::fs::write(&path, &csv) {
                die(format!("cannot write {path}: {e}"))
            }
            eprintln!("dsp matrix: wrote {path} ({} rows)", rows.len());
        }
        None => print!("{csv}"),
    }
    if failed.is_empty() {
        eprintln!("dsp matrix: all {} cells verified (R1-R6)", rows.len());
        return Ok(0);
    }
    eprintln!("dsp matrix: {}/{} cells failed verification", failed.len(), rows.len());
    Ok(1)
}

// ------------------------------------------------------------- service verbs

/// A service verb's command line: `--addr HOST:PORT`, which every verb
/// needs, and the verb's own flags, which `more` reads.
fn service_flags<'a>(
    argv: &'a [String],
    mut more: impl FnMut(&'a str, &mut Flags<'a>) -> Result<(), String>,
) -> Result<&'a str, String> {
    let mut addr = None;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--addr" => addr = Some(flags.text()?),
            _ => more(flag, &mut flags)?,
        }
    }
    addr.ok_or_else(|| "--addr HOST:PORT is required".into())
}

/// Send one request to the service at `addr` and return its reply; exit 2
/// when the service cannot be reached.
fn call(addr: &str, request: &Json) -> Json {
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| die(format!("cannot connect to {addr}: {e}")));
    client.call(request).unwrap_or_else(|e| die(format!("service call failed: {e}")))
}

/// Print the reply; the exit code follows its `ok` flag.
fn finish_call(response: Json) -> i32 {
    let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
    println!("{response}");
    if ok {
        0
    } else {
        1
    }
}

fn submit_main(argv: &[String]) -> Result<i32, String> {
    let mut file = None;
    let mut gen = None;
    let mut seed = 2018_u64;
    let mut task_scale = 0.06_f64;
    let mut sigma = 0.4_f64;
    let addr = service_flags(argv, |flag, flags| {
        match flag {
            "--file" => file = Some(flags.text()?),
            "--gen" => gen = Some(flags.value()?),
            "--seed" => seed = flags.value()?,
            "--scale" => task_scale = scale(flags)?,
            "--noise" => sigma = noise(flags)?,
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    let request = match (file, gen) {
        (Some(path), None) => {
            // The file may hold a full submit request, or a bare array of
            // job-request objects.
            let doc = read_artifact(path);
            match &doc {
                Json::Arr(jobs) => Json::obj(vec![
                    ("op", Json::Str("submit".into())),
                    ("jobs", Json::Arr(jobs.clone())),
                ]),
                _ => doc,
            }
        }
        (None, Some(n)) => {
            let jobs = workload(n, seed, task_scale, sigma);
            let requests: Vec<dsp_service::JobRequest> =
                jobs.iter().map(dsp_service::JobRequest::from_job).collect();
            wire::submit_request(&requests)
        }
        _ => return Err("submit needs one of --file and --gen".into()),
    };
    Ok(finish_call(call(addr, &request)))
}

/// `status` and `metrics`: one read of the service's published state
/// (`status` names its job).
fn read_main(op: &str, argv: &[String]) -> Result<i32, String> {
    let mut job: Option<u64> = None;
    let addr = service_flags(argv, |flag, flags| {
        match flag {
            "--job" if op == "status" => job = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    let mut request = vec![("op", Json::Str(op.into()))];
    match job {
        Some(job) => request.push(("job", Json::U64(job))),
        None if op == "status" => return Err("status needs --job ID".into()),
        None => {}
    }
    Ok(finish_call(call(addr, &Json::obj(request))))
}

fn drain_main(argv: &[String]) -> Result<i32, String> {
    let mut out = None;
    let addr = service_flags(argv, |flag, flags| {
        match flag {
            "--out" => out = Some(flags.text()?),
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    let response = call(addr, &Json::obj(vec![("op", Json::Str("drain".into()))]));
    let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
    if !ok {
        println!("{response}");
        return Ok(1);
    }
    let snapshot = response.get("snapshot").unwrap_or(&Json::Null);
    if let Some(path) = out {
        write_artifact(path, snapshot);
        eprintln!("dsp: snapshot written to {path}");
    }
    // Human summary on stdout instead of the (large) raw snapshot.
    let metrics = snapshot.get("metrics").unwrap_or(&Json::Null);
    let jobs = snapshot.get("jobs").and_then(Json::as_arr).map(<[Json]>::len).unwrap_or(0);
    println!(
        "drained: {jobs} jobs, {} tasks completed, {} preemptions, makespan {:.2} s",
        metrics.get("tasks_completed").and_then(Json::as_u64).unwrap_or(0),
        metrics.get("preemptions").and_then(Json::as_u64).unwrap_or(0),
        metrics.get("makespan_us").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
    );
    Ok(0)
}

// ------------------------------------------------------------------ analyze

/// `dsp analyze` — run the dsp-analyze lint wall (DESIGN.md §12) over the
/// workspace. Exit 0 when no unwaivered finding remains, 1 when one does,
/// 2 on usage/IO errors — the same convention as `verify`, so CI treats
/// both as blocking gates the same way.
fn analyze_main(argv: &[String]) -> Result<i32, String> {
    use dsp_analyze::lints::{LintId, ALL_LINTS};
    let mut json = false;
    let mut lints: Vec<LintId> = Vec::new();
    let mut root_arg: Option<&str> = None;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--json" => json = true,
            "--lint" => {
                let known: Vec<&str> = ALL_LINTS.iter().map(|l| l.as_str()).collect();
                lints.push(flags.read(&format!("a lint ID ({})", known.join(" ")), LintId::parse)?);
            }
            "--root" => root_arg = Some(flags.text()?),
            _ => return Err(flags.unknown()),
        }
    }
    let root = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir()
                .unwrap_or_else(|e| die(format!("cannot read current directory: {e}")));
            dsp_analyze::walker::find_workspace_root(&cwd).unwrap_or_else(|| {
                die(format!(
                    "no workspace root ([workspace] Cargo.toml) above {}; pass --root",
                    cwd.display()
                ))
            })
        }
    };
    let opts = dsp_analyze::Options { lints: (!lints.is_empty()).then_some(lints) };
    let analysis = dsp_analyze::analyze_workspace(&root, &opts)
        .unwrap_or_else(|e| die(format!("analyze failed under {}: {e}", root.display())));
    if json {
        println!("{}", dsp_analyze::report::render_json(&analysis.findings));
    } else {
        print!("{}", dsp_analyze::report::render_human(&analysis.findings));
    }
    Ok(if analysis.findings.is_empty() { 0 } else { 1 })
}
