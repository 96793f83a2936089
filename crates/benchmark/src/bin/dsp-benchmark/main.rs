//! `dsp-benchmark` — one benchmark for the whole system.
//!
//! ```text
//! dsp-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1|FILE] [--quick]
//! dsp-benchmark compare OLD.json NEW.json
//! dsp-benchmark repeat [--workload W] [--seed S] [--seconds N] [--quick]
//! ```
//!
//! `run --workload W` measures one workload in this process, checks its
//! outputs, prints its result document and — as the last line of standard
//! output — `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`,
//! a separate run with spans on; `--trace FILE` also writes the spans there
//! as JSON lines). Without `--workload` it runs each of the
//! five in a fresh child process (so `peak_rss_mb` and allocator state do
//! not leak from one to the next) and prints one document for all, stamped
//! with host and commit. Any output-check violation exits non-zero instead
//! of printing a number. See the crate's README for the metric dictionary.
//!
//! The benchmark touches the program only from outside: it calls public
//! functions of the `dsp_*` crates and times those calls.

mod calibrate;
mod harness;
mod layers;
mod report;
mod schema;
mod span;
mod stats;
mod timed;
mod workloads;

use dsp_service::json::{self, Json};
use harness::{Outcome, RunArgs, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{ilp_exact::IlpExact, matrix_grid::MatrixGrid, sim_paper::SimPaper, svc};

/// Default `--seed`: the paper's year, as everywhere else in the repository.
const DEFAULT_SEED: u64 = 2018;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Runs per set of `repeat`, each with another seed: what the acceptance
/// check of the benchmark's driver makes.
const REPEAT_RUNS: usize = 10;

struct Cli {
    args: RunArgs,
    workload: Option<String>,
    /// Where a traced run writes its spans (`--trace FILE`).
    spans_to: Option<PathBuf>,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dsp-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1|FILE] \
         [--quick]\n       dsp-benchmark compare OLD.json NEW.json\n       \
         dsp-benchmark repeat [--workload W] [--seed S] [--seconds N] [--quick]\n\
         workloads: {}",
        schema::WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

fn parse_cli(argv: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        args: RunArgs { seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false, quick: false },
        workload: None,
        spans_to: None,
        files: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = it.next()?;
                schema::WORKLOADS.iter().find(|w| *w == name)?;
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.args.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                cli.args.seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?;
            }
            "--trace" => match it.next()?.as_str() {
                "0" => cli.args.trace = false,
                "1" => cli.args.trace = true,
                flag if flag.starts_with("--") => return None,
                file => {
                    cli.args.trace = true;
                    cli.spans_to = Some(file.into());
                }
            },
            "--quick" => cli.args.quick = true,
            flag if flag.starts_with("--") => return None,
            file => cli.files.push(file.to_string()),
        }
    }
    Some(cli)
}

fn run_one<W: Workload>(w: &W, cli: &Cli) -> Outcome {
    if !cli.args.trace {
        return harness::measure(w, &cli.args);
    }
    let (mut out, spans) = harness::trace(w, &cli.args);
    if let Some(path) = &cli.spans_to {
        if let Err(e) = span::write_jsonl(path, &spans) {
            out.errors.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}

/// Measure one workload in this process and print its result.
fn run_workload(name: &str, cli: &Cli) -> ExitCode {
    let quick = cli.args.quick;
    let out = match name {
        "sim_paper" => run_one(&SimPaper::new(quick), cli),
        "ilp_exact" => run_one(&IlpExact::new(quick), cli),
        "matrix_grid" => run_one(&MatrixGrid::new(quick), cli),
        "svc_submit_sat" => run_one(&svc::SubmitSat::new(quick), cli),
        "svc_mixed_open" => run_one(&svc::MixedOpen::new(quick), cli),
        _ => return usage(),
    };
    if !out.errors.is_empty() || out.failed > 0 {
        eprintln!(
            "dsp-benchmark: {name}: output checks failed ({} of {} operations):",
            out.failed, out.attempted
        );
        out.errors.iter().take(20).for_each(|e| eprintln!("  {e}"));
        return ExitCode::from(1);
    }
    match report::contract_line(&cli.args, &out) {
        Ok(line) => {
            println!("{}", report::workload_json(name, &cli.args, &out));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dsp-benchmark: {name}: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run `name` in a fresh child process with this invocation's flags and
/// return its result document.
fn child(name: &str, cli: &Cli, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &cli.args.seconds.to_string(), "--trace"]);
    match (trace, &cli.spans_to) {
        (false, _) => cmd.arg("0"),
        (true, None) => cmd.arg("1"),
        (true, Some(path)) => cmd.arg(format!("{}.{name}.jsonl", path.display())),
    };
    if cli.args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("cannot start the child for {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} failed:\n{}", String::from_utf8_lossy(&output.stderr)));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let first = stdout.lines().next().ok_or(format!("{name} printed nothing"))?;
    json::parse(first).map_err(|e| format!("{name} printed no document: {e}"))
}

fn selected(cli: &Cli) -> Vec<&'static str> {
    schema::WORKLOADS
        .into_iter()
        .filter(|n| cli.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Every workload, each in its own process; with tracing on each runs
/// twice (untraced for the end-to-end metrics, traced for the per-layer
/// ones) and the two results are merged.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut workloads = BTreeMap::new();
    for name in selected(cli) {
        eprintln!("dsp-benchmark: {name} …");
        let mut doc = child(name, cli, cli.args.seed, false)?;
        if cli.args.trace {
            let traced = child(name, cli, cli.args.seed, true)?;
            if let (Json::Obj(doc), Some(Json::Obj(layers))) = (&mut doc, traced.get("metrics")) {
                if let Some(Json::Obj(metrics)) = doc.get_mut("metrics") {
                    metrics.extend(layers.clone());
                }
            }
        }
        workloads.insert(name.to_string(), doc);
    }
    println!("{}", report::document(&cli.args, workloads));
    Ok(true)
}

fn compare(cli: &Cli) -> ExitCode {
    let [old, new] = cli.files.as_slice() else { return usage() };
    let load = |path: &String| -> Option<Json> {
        let text = std::fs::read_to_string(path).map_err(|e| eprintln!("{path}: {e}")).ok()?;
        json::parse(&text).map_err(|e| eprintln!("{path}: {e}")).ok()
    };
    let (Some(old), Some(new)) = (load(old), load(new)) else { return ExitCode::from(2) };
    match report::compare(&old, &new, &mut std::io::stdout()) {
        Ok(code) => ExitCode::from(code as u8),
        Err(_) => ExitCode::from(2),
    }
}

/// Two sets of [`REPEAT_RUNS`] runs per workload, back to back, each run
/// with another seed; the bounds of `schema::END_TO_END` decide (see
/// [`report::accept_sets`]). `sim_digest` must repeat per seed.
fn repeat(cli: &Cli) -> Result<bool, String> {
    let mut all = true;
    for name in selected(cli) {
        let mut sets: Vec<Vec<BTreeMap<String, f64>>> = Vec::new();
        let mut digests: Vec<Vec<Option<String>>> = Vec::new();
        for set in 1..=2 {
            let (mut runs, mut seen) = (Vec::new(), Vec::new());
            for i in 0..REPEAT_RUNS {
                eprintln!("dsp-benchmark: {name} set {set} run {} …", i + 1);
                let doc = child(name, cli, cli.args.seed + i as u64, false)?;
                let values = match doc.get("metrics") {
                    Some(Json::Obj(metrics)) => metrics
                        .iter()
                        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                        .collect(),
                    _ => BTreeMap::new(),
                };
                runs.push(values);
                seen.push(doc.get("sim_digest").and_then(Json::as_str).map(str::to_owned));
            }
            sets.push(runs);
            digests.push(seen);
        }
        if digests[0] != digests[1] {
            println!("{name}: simulated behaviour changed between the two sets");
            all = false;
        }
        all &= report::accept_sets(name, &sets[0], &sets[1], &mut std::io::stdout())
            .map_err(|e| format!("cannot print: {e}"))?;
    }
    Ok(all)
}

/// Exit 0 when everything held, 1 when not (or when a run failed).
fn exit(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dsp-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else { return usage() };
    let Some(cli) = parse_cli(rest) else { return usage() };
    match (command.as_str(), &cli.workload) {
        ("run", Some(name)) => run_workload(name, &cli),
        ("run", None) => exit(run_all(&cli)),
        ("compare", _) => compare(&cli),
        ("repeat", _) => exit(repeat(&cli)),
        _ => usage(),
    }
}
