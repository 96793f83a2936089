//! `dsp` — run one experiment, verify serialized artifacts, or talk to a
//! running `dspd` service, from the command line.
//!
//! ```text
//! dsp [--cluster ec2|palmetto|blend] [--jobs N] [--seed S] [--scale F]
//!     [--sched dsp-list|dsp|dsp-ilp|tetris|tetris-wo-dep|aalo|fifo|random]
//!     [--preempt dsp|dsp-wo-pp|amoeba|natjam|srpt|none]
//!     [--noise SIGMA]
//!     [--kill NODE@SECS]... [--straggle NODE@SECS@FACTOR]...
//!     [--dump-jobs FILE] [--dump-schedule FILE] [--dump-trace FILE]
//!     [--json]
//!
//! dsp verify --jobs FILE --schedule FILE [--cluster ec2|palmetto|blend]
//!     [--trace FILE] [--dep-oblivious] [--no-deadlines] [--json]
//! dsp verify --snapshot FILE [--dep-oblivious] [--no-deadlines] [--json]
//!
//! dsp serve   [DSPD FLAGS]    (the daemon itself: `dsp_service::cli`)
//! dsp submit  --addr HOST:PORT (--file FILE | --gen N [--seed S] [--scale F])
//! dsp status  --addr HOST:PORT --job ID
//! dsp metrics --addr HOST:PORT
//! dsp drain   --addr HOST:PORT [--out SNAPSHOT_FILE]
//!
//! dsp matrix  [--quick|--smoke|--full] [--seed S] [--jobs N] [--scale F]
//!             [--out DIR] [--no-artifacts]
//!
//! dsp analyze [--json] [--lint ID]... [--root DIR]
//! ```
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
//! Artifacts (`--dump-*`, snapshots) are versioned JSON: every file
//! carries a `format_version` stamp and `dsp verify` exits 2 with a clear
//! message when handed a version this build does not read.
//!
//! Method and cluster names are `dsp-core`'s method table's (the usage
//! text is generated from it): `tetris` is TetrisW/SimDep, `tetris-wo-dep`
//! the dependency-oblivious variant, `dsp` the list scheduler `dsp-list`.
//!
//! The run mode is one `dsp_core::execute` call. It prints the run's
//! headline metrics (or the full metrics as JSON), can serialize its
//! artifacts — the generated jobs, the combined offline schedule, the
//! execution trace — and audits itself: `verified (R1-R6)` or the
//! findings go to stderr, and an error-severity finding exits 1. The
//! `verify` subcommand replays `dsp-verify`'s rules R1–R4 over a serialized
//! schedule (and R5–R6 over a serialized trace or service snapshot) and
//! exits 0 when no rule reports an error, 1 when one does, 2 on usage
//! errors.

use dsp_core::cluster::NodeId;
use dsp_core::sim::{Fault, FaultPlan};
use dsp_core::trace::{generate_workload, TraceParams};
use dsp_core::units::Time;
use dsp_core::verify::{Report, Severity, VerifyOptions};
use dsp_core::{ClusterProfile, Params, PreemptMethod, SchedMethod};
use dsp_service::json::Json;
use dsp_service::{codec, wire, Client};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;

struct Args {
    cluster: ClusterProfile,
    jobs: usize,
    seed: u64,
    scale: f64,
    sched: SchedMethod,
    preempt: PreemptMethod,
    noise: f64,
    faults: FaultPlan,
    dump_jobs: Option<String>,
    dump_schedule: Option<String>,
    dump_trace: Option<String>,
    json: bool,
}

fn usage() -> ! {
    let (clusters, scheds, preempts) =
        (ClusterProfile::usage(), SchedMethod::usage(), PreemptMethod::usage());
    eprintln!(
        "usage: dsp [--cluster {clusters}] [--jobs N] [--seed S] [--scale F] \
         [--sched {scheds}] [--preempt {preempts}] [--noise SIGMA] \
         [--kill NODE@SECS]... [--straggle NODE@SECS@FACTOR]... \
         [--dump-jobs FILE] [--dump-schedule FILE] [--dump-trace FILE] [--json]\n\
         \x20      dsp verify --jobs FILE --schedule FILE [--cluster {clusters}] \
         [--trace FILE] [--dep-oblivious] [--no-deadlines] [--json]\n\
         \x20      dsp verify --snapshot FILE [--dep-oblivious] [--no-deadlines] [--json]\n\
         \x20      dsp serve [DSPD FLAGS]\n\
         \x20      dsp submit --addr HOST:PORT (--file FILE | --gen N [--seed S] [--scale F])\n\
         \x20      dsp status --addr HOST:PORT --job ID\n\
         \x20      dsp metrics --addr HOST:PORT\n\
         \x20      dsp drain --addr HOST:PORT [--out SNAPSHOT_FILE]\n\
         \x20      dsp matrix [--quick|--smoke|--full] [--seed S] [--jobs N] [--scale F] \
         [--out DIR] [--no-artifacts]\n\
         \x20      dsp analyze [--json] [--lint ID]... [--root DIR]"
    );
    std::process::exit(2)
}

/// `text` as the number `flag` takes when `ok` accepts it; otherwise exit 2
/// naming the flag and what it `must` be.
fn number(flag: &str, text: &str, ok: fn(f64) -> bool, must: &str) -> f64 {
    match text.parse() {
        Ok(v) if ok(v) => v,
        _ => {
            eprintln!("dsp: {flag}: `{text}` is not {must}");
            std::process::exit(2)
        }
    }
}

/// A `--scale` value: task sizes are multiplied by it.
fn scale_arg(text: &str) -> f64 {
    number("--scale", text, |s| s.is_finite() && s > 0.0, "a finite number > 0")
}

/// A `--noise` value: the σ of the estimate noise.
fn noise_arg(text: &str) -> f64 {
    number("--noise", text, |s| s.is_finite() && s >= 0.0, "a finite number ≥ 0")
}

fn parse(argv: &[String]) -> Args {
    let mut args = Args {
        cluster: ClusterProfile::Ec2,
        jobs: 45,
        seed: 2018,
        scale: 0.06,
        sched: SchedMethod::Dsp,
        preempt: PreemptMethod::Dsp,
        noise: 0.4,
        faults: FaultPlan::none(),
        dump_jobs: None,
        dump_schedule: None,
        dump_trace: None,
        json: false,
    };
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--cluster" => {
                args.cluster = ClusterProfile::from_name(&next(&mut i)).unwrap_or_else(|| usage())
            }
            "--jobs" => args.jobs = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scale" => args.scale = scale_arg(&next(&mut i)),
            "--noise" => args.noise = noise_arg(&next(&mut i)),
            "--sched" => {
                args.sched = SchedMethod::from_name(&next(&mut i)).unwrap_or_else(|| usage())
            }
            "--preempt" => {
                args.preempt = PreemptMethod::from_name(&next(&mut i)).unwrap_or_else(|| usage())
            }
            "--kill" => {
                let spec = next(&mut i);
                let (node, at) = spec.split_once('@').unwrap_or_else(|| usage());
                args.faults = std::mem::take(&mut args.faults).kill(
                    NodeId(node.parse().unwrap_or_else(|_| usage())),
                    Time::from_secs(at.parse().unwrap_or_else(|_| usage())),
                );
            }
            "--straggle" => {
                let spec = next(&mut i);
                let parts: Vec<&str> = spec.split('@').collect();
                if parts.len() != 3 {
                    usage()
                }
                args.faults = std::mem::take(&mut args.faults).straggle(
                    NodeId(parts[0].parse().unwrap_or_else(|_| usage())),
                    Time::from_secs(parts[1].parse().unwrap_or_else(|_| usage())),
                    number("--straggle", parts[2], |f| f > 0.0 && f <= 1.0, "a factor in (0, 1]"),
                );
            }
            "--dump-jobs" => args.dump_jobs = Some(next(&mut i)),
            "--dump-schedule" => args.dump_schedule = Some(next(&mut i)),
            "--dump-trace" => args.dump_trace = Some(next(&mut i)),
            "--json" => args.json = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    // The engine indexes its node table with these ids: a node the cluster
    // lacks is a usage error, not a panic mid-run.
    let nodes = args.cluster.build().len();
    for fault in &args.faults.faults {
        let node = fault.node().0;
        if node as usize >= nodes {
            let flag = match fault {
                Fault::NodeDown { .. } => "--kill",
                Fault::SlowDown { .. } => "--straggle",
            };
            eprintln!(
                "dsp: {flag}: no node {node} in the {} cluster (nodes 0..{nodes})",
                args.cluster.name()
            );
            std::process::exit(2)
        }
    }
    args
}

fn write_artifact(path: &str, artifact: &Json) {
    // Straight from the encoder's buffer to the file: no copy of the text.
    let written = std::fs::File::create(path).and_then(|mut f| writeln!(f, "{artifact}"));
    if let Err(e) = written {
        eprintln!("dsp: cannot write {path}: {e}");
        std::process::exit(2)
    }
}

/// Load and parse a JSON artifact file; exit 2 on I/O or syntax errors.
fn read_artifact(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("dsp: cannot open {path}: {e}");
        std::process::exit(2)
    });
    dsp_service::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("dsp: cannot parse {path}: {e}");
        std::process::exit(2)
    })
}

/// Unwrap a codec decode; version mismatches and shape errors exit 2.
fn decode_or_die<T>(result: Result<T, codec::CodecError>, path: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("dsp: cannot decode {path}: {e}");
        std::process::exit(2)
    })
}

fn report_to_json(report: &Report) -> Json {
    Json::obj(vec![
        ("passes", Json::Bool(report.passes())),
        (
            "diagnostics",
            Json::Arr(
                report
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("rule", Json::Str(format!("{:?}", d.rule))),
                            ("severity", Json::Str(format!("{:?}", d.severity))),
                            (
                                "task",
                                match d.task {
                                    Some(t) => Json::Str(format!("T{}.{}", t.job.0, t.index)),
                                    None => Json::Null,
                                },
                            ),
                            (
                                "node",
                                match d.node {
                                    Some(n) => Json::U64(u64::from(n.0)),
                                    None => Json::Null,
                                },
                            ),
                            (
                                "at_us",
                                match d.at {
                                    Some(t) => Json::U64(t.as_micros()),
                                    None => Json::Null,
                                },
                            ),
                            ("message", Json::Str(d.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_main(argv: &[String]) {
    let mut args = parse(argv);
    let trace = TraceParams {
        task_scale: args.scale,
        estimate_noise_sigma: args.noise,
        ..TraceParams::default()
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let jobs = generate_workload(&mut rng, args.jobs, &trace);
    let params = Params::default();
    let cluster = args.cluster.build();
    let mut scheduler = args.sched.build(&params, args.seed);
    let mut policy = args.preempt.build(&params);
    let run = dsp_core::execute(
        &jobs,
        &cluster,
        &params,
        scheduler.as_mut(),
        policy.as_mut(),
        std::mem::take(&mut args.faults),
    );
    if let Some(path) = &args.dump_jobs {
        write_artifact(path, &codec::jobs_to_artifact(&jobs));
    }
    if let Some(path) = &args.dump_schedule {
        write_artifact(path, &codec::schedule_to_artifact(&run.schedule));
    }
    if let Some(path) = &args.dump_trace {
        write_artifact(path, &codec::trace_to_artifact(&run.history));
    }
    print_metrics(&args, &run.metrics);

    let opts =
        VerifyOptions { dependency_aware: args.sched.dependency_aware(), check_deadlines: true };
    let report = run.audit(&jobs, &cluster, &opts);
    if !report.passes() {
        eprint!("{report}");
        std::process::exit(1)
    }
    eprintln!("dsp: verified (R1-R6)");
}

fn print_metrics(args: &Args, metrics: &dsp_core::metrics::RunMetrics) {
    if args.json {
        println!("{}", codec::metrics_to_json(metrics));
        return;
    }
    println!(
        "{} + {} on {} — {} jobs (scale {}, seed {})",
        args.sched.label(),
        args.preempt.label(),
        args.cluster.label(),
        args.jobs,
        args.scale,
        args.seed
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

fn finish_verify(report: Report, checked: usize, json: bool) -> ! {
    if json {
        println!("{}", report_to_json(&report));
    } else {
        print!("{report}");
        let errors = report.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = report.len() - errors;
        println!("{checked} assignments checked: {errors} errors, {warnings} warnings");
    }
    std::process::exit(if report.passes() { 0 } else { 1 })
}

fn verify_main(argv: &[String]) {
    let mut jobs_path: Option<String> = None;
    let mut schedule_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut snapshot_path: Option<String> = None;
    let mut cluster = ClusterProfile::Ec2;
    let mut opts = VerifyOptions::default();
    let mut json = false;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--jobs" => jobs_path = Some(next(&mut i)),
            "--schedule" => schedule_path = Some(next(&mut i)),
            "--trace" => trace_path = Some(next(&mut i)),
            "--snapshot" => snapshot_path = Some(next(&mut i)),
            "--cluster" => {
                cluster = ClusterProfile::from_name(&next(&mut i)).unwrap_or_else(|| usage())
            }
            "--dep-oblivious" => opts.dependency_aware = false,
            "--no-deadlines" => opts.check_deadlines = false,
            "--json" => json = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    // Snapshot mode: the artifact is self-contained (cluster + jobs +
    // schedule + trace), so it conflicts with the piecewise flags.
    let (jobs_path, cluster, jobs, schedule, history) = if let Some(path) = snapshot_path {
        if jobs_path.is_some() || schedule_path.is_some() || trace_path.is_some() {
            usage()
        }
        let snap = decode_or_die(codec::Snapshot::from_json(&read_artifact(&path)), &path);
        (path, snap.cluster, snap.jobs, snap.schedule, Some(snap.history))
    } else {
        let (Some(jobs_path), Some(schedule_path)) = (jobs_path, schedule_path) else { usage() };
        let jobs = decode_or_die(codec::jobs_from_artifact(&read_artifact(&jobs_path)), &jobs_path);
        let schedule = decode_or_die(
            codec::schedule_from_artifact(&read_artifact(&schedule_path)),
            &schedule_path,
        );
        let history = trace_path
            .map(|path| decode_or_die(codec::trace_from_artifact(&read_artifact(&path)), &path));
        (jobs_path, cluster.build(), jobs, schedule, history)
    };
    if let Err(e) = dsp_core::dag::validate_jobs(&jobs) {
        eprintln!("dsp: invalid jobs in {jobs_path}: {e}");
        std::process::exit(2)
    }
    let report = dsp_core::verify::audit(&schedule, &jobs, &cluster, &opts, history.as_ref(), None);
    finish_verify(report, schedule.len(), json)
}

// ------------------------------------------------------------------- matrix

fn matrix_main(argv: &[String]) {
    use dsp_core::matrix::{to_csv, MatrixConfig};
    let mut kind = "quick";
    let mut seed = 2018u64;
    let mut out_dir: Option<String> = None;
    let mut jobs_override: Option<usize> = None;
    let mut scale_override: Option<f64> = None;
    let mut artifacts = true;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => kind = "quick",
            "--smoke" => kind = "smoke",
            "--full" => kind = "full",
            "--seed" => seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--jobs" => jobs_override = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--scale" => scale_override = Some(scale_arg(&next(&mut i))),
            "--out" => out_dir = Some(next(&mut i)),
            "--no-artifacts" => artifacts = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
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
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(format!("{dir}/cells")) {
            eprintln!("dsp: cannot create {dir}/cells: {e}");
            std::process::exit(2)
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
            if let Some(dir) = &out_dir {
                let snap = codec::Snapshot {
                    cluster: cell.cluster.clone(),
                    jobs: cell.jobs.clone(),
                    schedule: cell.schedule.clone(),
                    history: cell.history.clone(),
                    metrics: cell.metrics.clone(),
                };
                write_artifact(&format!("{dir}/cells/{}.json", cell.cell_id()), &snap.to_json());
            }
        }
    });
    let csv = to_csv(&rows);
    match &out_dir {
        Some(dir) => {
            let path = format!("{dir}/matrix.csv");
            if let Err(e) = std::fs::write(&path, &csv) {
                eprintln!("dsp: cannot write {path}: {e}");
                std::process::exit(2)
            }
            eprintln!("dsp matrix: wrote {path} ({} rows)", rows.len());
        }
        None => print!("{csv}"),
    }
    if failed.is_empty() {
        eprintln!("dsp matrix: all {} cells verified (R1-R6)", rows.len());
        std::process::exit(0)
    }
    eprintln!("dsp matrix: {}/{} cells failed verification", failed.len(), rows.len());
    std::process::exit(1)
}

// ------------------------------------------------------------- service verbs

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("dsp: cannot connect to {addr}: {e}");
        std::process::exit(2)
    })
}

fn call(client: &mut Client, request: &Json) -> Json {
    client.call(request).unwrap_or_else(|e| {
        eprintln!("dsp: service call failed: {e}");
        std::process::exit(2)
    })
}

/// Print the response and exit 0/1 by its `ok` flag.
fn finish_call(response: Json) -> ! {
    let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
    println!("{response}");
    std::process::exit(if ok { 0 } else { 1 })
}

fn submit_main(argv: &[String]) {
    let mut addr: Option<String> = None;
    let mut file: Option<String> = None;
    let mut gen: Option<usize> = None;
    let mut seed = 2018_u64;
    let mut scale = 0.06_f64;
    let mut noise = 0.4_f64;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = Some(next(&mut i)),
            "--file" => file = Some(next(&mut i)),
            "--gen" => gen = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scale" => scale = scale_arg(&next(&mut i)),
            "--noise" => noise = noise_arg(&next(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(addr) = addr else { usage() };
    let request = match (file, gen) {
        (Some(path), None) => {
            // The file may hold a full submit request, or a bare array of
            // job-request objects.
            let doc = read_artifact(&path);
            match &doc {
                Json::Arr(jobs) => Json::obj(vec![
                    ("op", Json::Str("submit".into())),
                    ("jobs", Json::Arr(jobs.clone())),
                ]),
                _ => doc,
            }
        }
        (None, Some(n)) => {
            let trace = TraceParams {
                task_scale: scale,
                estimate_noise_sigma: noise,
                ..TraceParams::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let jobs = generate_workload(&mut rng, n, &trace);
            let requests: Vec<dsp_service::JobRequest> =
                jobs.iter().map(dsp_service::JobRequest::from_job).collect();
            wire::submit_request(&requests)
        }
        _ => usage(),
    };
    let mut client = connect(&addr);
    finish_call(call(&mut client, &request))
}

fn status_main(argv: &[String]) {
    let mut addr: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = Some(next(&mut i)),
            "--job" => job = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let (Some(addr), Some(job)) = (addr, job) else { usage() };
    let mut client = connect(&addr);
    let request = Json::obj(vec![("op", Json::Str("status".into())), ("job", Json::U64(job))]);
    finish_call(call(&mut client, &request))
}

fn metrics_main(argv: &[String]) {
    let mut addr: Option<String> = None;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = Some(next(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(addr) = addr else { usage() };
    let mut client = connect(&addr);
    finish_call(call(&mut client, &Json::obj(vec![("op", Json::Str("metrics".into()))])))
}

fn drain_main(argv: &[String]) {
    let mut addr: Option<String> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = Some(next(&mut i)),
            "--out" => out = Some(next(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(addr) = addr else { usage() };
    let mut client = connect(&addr);
    let response = call(&mut client, &Json::obj(vec![("op", Json::Str("drain".into()))]));
    let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
    if ok {
        let snapshot = response.get("snapshot").unwrap_or(&Json::Null);
        if let Some(path) = out {
            write_artifact(&path, snapshot);
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
        std::process::exit(0)
    }
    println!("{response}");
    std::process::exit(1)
}

// ---------------------------------------------------------------- analyze

/// `dsp analyze` — run the dsp-analyze lint wall (DESIGN.md §12) over the
/// workspace. Exit 0 when no unwaivered finding remains, 1 when one does,
/// 2 on usage/IO errors — the same convention as `verify`, so CI treats
/// both as blocking gates the same way.
fn analyze_main(argv: &[String]) {
    let mut json = false;
    let mut lints: Vec<dsp_analyze::lints::LintId> = Vec::new();
    let mut root_arg: Option<String> = None;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => json = true,
            "--lint" => {
                let raw = next(&mut i);
                let id = dsp_analyze::lints::LintId::parse(&raw).unwrap_or_else(|| {
                    eprintln!("dsp: unknown lint ID `{raw}`; known IDs:");
                    for l in dsp_analyze::lints::ALL_LINTS {
                        eprintln!("  {}  {}", l.as_str(), l.summary());
                    }
                    std::process::exit(2)
                });
                lints.push(id);
            }
            "--root" => root_arg = Some(next(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let root = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|e| {
                eprintln!("dsp: cannot read current directory: {e}");
                std::process::exit(2)
            });
            dsp_analyze::walker::find_workspace_root(&cwd).unwrap_or_else(|| {
                eprintln!(
                    "dsp: no workspace root ([workspace] Cargo.toml) above {}; pass --root",
                    cwd.display()
                );
                std::process::exit(2)
            })
        }
    };
    let opts = dsp_analyze::Options { lints: (!lints.is_empty()).then_some(lints) };
    let analysis = dsp_analyze::analyze_workspace(&root, &opts).unwrap_or_else(|e| {
        eprintln!("dsp: analyze failed under {}: {e}", root.display());
        std::process::exit(2)
    });
    if json {
        println!("{}", dsp_analyze::report::render_json(&analysis.findings));
    } else {
        print!("{}", dsp_analyze::report::render_human(&analysis.findings));
    }
    std::process::exit(if analysis.findings.is_empty() { 0 } else { 1 })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("verify") => verify_main(&argv[1..]),
        Some("matrix") => matrix_main(&argv[1..]),
        Some("analyze") => analyze_main(&argv[1..]),
        Some("serve") => std::process::exit(dsp_service::cli::run(&argv[1..])),
        Some("submit") => submit_main(&argv[1..]),
        Some("status") => status_main(&argv[1..]),
        Some("metrics") => metrics_main(&argv[1..]),
        Some("drain") => drain_main(&argv[1..]),
        _ => run_main(&argv),
    }
}
