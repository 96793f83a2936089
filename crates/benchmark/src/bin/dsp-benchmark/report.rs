//! Result documents: what `run` prints, and `compare` / `repeat` over them.

use crate::harness::{Metric, Metrics, Outcome, RunArgs};
use crate::schema::{self, Better, EndToEnd};
use crate::stats;
use dsp_service::json::Json;
use std::collections::{BTreeMap, BTreeSet};

pub const FORMAT_VERSION: u64 = 1;

fn metric_json(m: &Metric) -> Json {
    Json::obj(vec![
        ("value", Json::F64(m.value)),
        ("unit", Json::Str(m.unit.into())),
        ("samples", Json::U64(m.samples as u64)),
        ("q1", Json::F64(m.q1)),
        ("q3", Json::F64(m.q3)),
    ])
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(metrics.iter().map(|(k, m)| (k.to_string(), metric_json(m))).collect())
}

/// One workload's result: every metric with unit, sample count and
/// quartiles, the digest of its simulated statistics, and the output
/// checks' verdict. `metrics` are what the bounds apply to (times in
/// reference-box seconds); `as_measured` are the same metrics in host
/// seconds, and `reps` the repetitions both are made from, so that the
/// correction can be checked from the document alone.
pub fn workload_json(name: &str, args: &RunArgs, out: &Outcome) -> Json {
    let reps = out.reps.iter().map(|r| {
        Json::obj(vec![
            ("work", Json::U64(r.work)),
            ("wall_s", Json::F64(r.wall_s)),
            ("finish_s", Json::F64(r.finish_s)),
            ("op_p50_ms", Json::F64(r.op_p50_ms)),
            ("slowness", Json::F64(r.slowness)),
            ("finish_slowness", r.finish_slowness.map_or(Json::Null, Json::F64)),
        ])
    });
    Json::obj(vec![
        ("workload", Json::Str(name.into())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("trace", Json::Bool(args.trace)),
        ("correct", Json::Bool(out.errors.is_empty())),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("fail_ratio", Json::F64(out.failed as f64 / out.attempted.max(1) as f64)),
        ("sim_digest", Json::Str(format!("{:016x}", out.digest))),
        (
            "notes",
            Json::Obj(
                out.notes.iter().map(|(k, v)| (k.to_string(), Json::Str(v.clone()))).collect(),
            ),
        ),
        ("metrics", metrics_json(&out.metrics)),
        ("as_measured", metrics_json(&out.as_measured)),
        ("reps", Json::Arr(reps.collect())),
    ])
}

/// The last line of a single-workload run: exactly `correct`, `attempted`,
/// `failed`, and `metrics` as `{value, unit}` — every end-to-end metric of
/// an untraced run, every per-layer metric of a traced one.
pub fn contract_line(args: &RunArgs, out: &Outcome) -> Result<String, String> {
    let names: Vec<(&str, &str)> = if args.trace {
        schema::PER_LAYER.iter().map(|p| (p.name, p.unit)).collect()
    } else {
        schema::END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in names {
        let m = out.metrics.get(name).ok_or(format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        let entry =
            Json::obj(vec![("value", Json::F64(m.value)), ("unit", Json::Str(unit.into()))]);
        metrics.insert(name.to_string(), entry);
    }
    if out.attempted == 0 {
        return Err("nothing was attempted".into());
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(out.errors.is_empty())),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string())
}

/// Cores, CPU model and kernel of this host: results from different hosts
/// do not compare.
pub fn host_json() -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown", |(_, m)| m.trim());
    Json::obj(vec![
        ("cores", Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64))),
        ("cpu_model", Json::Str(model.into())),
        ("kernel", Json::Str(read("/proc/sys/kernel/osrelease").trim().into())),
    ])
}

/// The commit checked out in the working directory, read from `.git`
/// (no `git` process is started); `unknown` outside a repository.
pub fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
                .unwrap_or_else(|| "unknown".into());
        }
        dir = d.parent().map(Into::into);
    }
    "unknown".into()
}

/// The document of a whole run: host, commit, and each workload's result.
pub fn document(args: &RunArgs, workloads: BTreeMap<String, Json>) -> Json {
    Json::obj(vec![
        ("format_version", Json::U64(FORMAT_VERSION)),
        ("host", host_json()),
        ("git", Json::Str(git_rev())),
        ("transport", Json::Str("loopback (127.0.0.1), service in process".into())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::Obj(workloads)),
    ])
}

// ------------------------------------------------------------------ compare

/// How one metric moved between two results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between the repetitions of either side is wider than
    /// the bound: the two medians cannot be told apart at that resolution.
    Unresolved,
}

/// By what share of `old` did `new` get worse (negative: better)?
pub fn worsening(e: &EndToEnd, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match e.better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

pub fn verdict(e: &EndToEnd, old: f64, new: f64, spread: f64) -> Verdict {
    if spread > e.bound {
        Verdict::Unresolved
    } else if worsening(e, old, new) > e.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("metrics")?.get(metric)?;
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Side { median: f("value")?, q1: f("q1")?, q3: f("q3")? })
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn keys(v: Option<&Json>) -> BTreeSet<String> {
    match v {
        Some(Json::Obj(map)) => map.keys().cloned().collect(),
        _ => BTreeSet::new(),
    }
}

/// Compare two `run` documents. Prints one row per workload × end-to-end
/// metric and returns the exit code: 0 when nothing regressed, 1 on a
/// regression or a changed `sim_digest`, 2 when the two documents do not
/// cover the same workloads and metrics (or are not documents at all).
pub fn compare(old: &Json, new: &Json, out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    let version = |d: &Json| d.get("format_version").and_then(Json::as_u64);
    if version(old) != Some(FORMAT_VERSION) || version(new) != Some(FORMAT_VERSION) {
        writeln!(out, "not dsp-benchmark documents of format {FORMAT_VERSION}")?;
        return Ok(2);
    }
    let (mut regressed, mut one_sided) = (false, false);
    let (old_w, new_w) = (old.get("workloads"), new.get("workloads"));
    for name in keys(old_w).union(&keys(new_w)) {
        let (Some(o), Some(n)) = (old_w.and_then(|w| w.get(name)), new_w.and_then(|w| w.get(name)))
        else {
            writeln!(out, "{name}: only in one of the two results")?;
            one_sided = true;
            continue;
        };
        for metric in keys(o.get("metrics")).symmetric_difference(&keys(n.get("metrics"))) {
            writeln!(out, "{name} {metric}: only in one of the two results")?;
            one_sided = true;
        }
        let digest = |w: &Json| w.get("sim_digest").and_then(Json::as_str).map(str::to_owned);
        if digest(o) != digest(n) {
            writeln!(
                out,
                "{name}: simulated behaviour changed (sim_digest {:?} -> {:?})",
                digest(o),
                digest(n)
            )?;
            regressed = true;
        }
        for e in &schema::END_TO_END {
            let (Some(a), Some(b)) = (side(o, e.name), side(n, e.name)) else { continue };
            let v = verdict(e, a.median, b.median, a.spread().max(b.spread()));
            regressed |= v == Verdict::Regressed;
            writeln!(
                out,
                "{name:<15} {:<14} old {:>12.4} [{:.4}, {:.4}]  new {:>12.4} [{:.4}, {:.4}] {:<4} new/old {:.3} (base {:.4}), {} is better, bound {:.2}: {}",
                e.name, a.median, a.q1, a.q3, b.median, b.q1, b.q3, e.unit,
                if a.median == 0.0 { 0.0 } else { b.median / a.median },
                a.median, e.better.as_str(), e.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            )?;
        }
    }
    Ok(if one_sided {
        2
    } else if regressed {
        1
    } else {
        0
    })
}

// ------------------------------------------------------------------- repeat

/// The acceptance check over two sets of runs of one workload (each run
/// with another seed): within each set, the interquartile range of a
/// metric over its median must stay within the metric's bound (`setup_s`
/// excepted), and the second set's median may not be worse than the
/// first's by more than the bound. Prints a row per metric; returns
/// whether all held.
pub fn accept_sets(
    workload: &str,
    first: &[BTreeMap<String, f64>],
    second: &[BTreeMap<String, f64>],
    out: &mut dyn std::io::Write,
) -> std::io::Result<bool> {
    let mut all = true;
    for e in &schema::END_TO_END {
        let values = |set: &[BTreeMap<String, f64>]| -> Vec<f64> {
            set.iter().filter_map(|run| run.get(e.name).copied()).collect()
        };
        let (a, b) = (values(first), values(second));
        let (Some(qa), Some(qb)) = (stats::quartiles_exclusive(&a), stats::quartiles_exclusive(&b))
        else {
            writeln!(out, "{workload:<15} {:<14} too few runs", e.name)?;
            all = false;
            continue;
        };
        let spread = |v: &[f64]| stats::relative_iqr(v).unwrap_or(f64::INFINITY);
        let (sa, sb) = (spread(&a), spread(&b));
        let shift = worsening(e, qa[1], qb[1]);
        let steady = e.name == "setup_s" || sa.max(sb) <= e.bound;
        let ok = steady && shift <= e.bound;
        all &= ok;
        writeln!(
            out,
            "{workload:<15} {:<14} median {:>12.4} -> {:>12.4} {:<4} spread {:.3} / {:.3}, shift {:+.3}, bound {:.2}: {}",
            e.name, qa[1], qb[1], e.unit, sa, sb, shift, e.bound,
            if ok { "ok" } else if !steady { "unsteady" } else { "shifted" },
        )?;
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_service::json::parse;

    fn doc(work_per_s: f64, digest: &str) -> Json {
        doc_with(work_per_s, 2.0, digest)
    }

    fn doc_with(work_per_s: f64, op_p50_ms: f64, digest: &str) -> Json {
        let metric = |v: f64| {
            format!(r#"{{"value":{v},"unit":"x","samples":5,"q1":{},"q3":{}}}"#, v * 0.99, v * 1.01)
        };
        parse(&format!(
            r#"{{"format_version":1,"workloads":{{"sim_paper":{{"sim_digest":"{digest}","metrics":{{"work_per_s":{},"op_p50_ms":{}}}}}}}}}"#,
            metric(work_per_s),
            metric(op_p50_ms),
        ))
        .unwrap()
    }

    fn run(old: &Json, new: &Json) -> (i32, String) {
        let mut text = Vec::new();
        let code = compare(old, new, &mut text).unwrap();
        (code, String::from_utf8(text).unwrap())
    }

    /// `BENCHMARK.json` lists exactly the schema's names, in its order,
    /// with its units, directions and bounds.
    #[test]
    fn benchmark_json_is_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let file = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |list: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let entry = |e: &Json| {
                let text = |k: &&str| match e.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(other) => other.to_string(),
                    None => panic!("{list}: no {k} in {e}"),
                };
                fields.iter().map(text).collect()
            };
            file.get(list).and_then(Json::as_arr).unwrap().iter().map(entry).collect()
        };
        let workloads: Vec<_> = schema::WORKLOADS.iter().map(|w| vec![w.to_string()]).collect();
        assert_eq!(rows("workloads", &["name"]), workloads);
        let end_to_end: Vec<_> = schema::END_TO_END
            .iter()
            .map(|e| [e.name, e.unit, e.better.as_str(), &e.bound.to_string()].map(String::from))
            .collect();
        assert_eq!(rows("end_to_end", &["name", "unit", "better", "bound"]), end_to_end);
        let per_layer: Vec<_> =
            schema::PER_LAYER.iter().map(|p| [p.name, p.unit].map(String::from)).collect();
        assert_eq!(rows("per_layer", &["name", "unit"]), per_layer);
        let seconds = file.get("run_seconds").and_then(Json::as_u64);
        assert_eq!(seconds, Some(crate::DEFAULT_SECONDS as u64));
    }

    #[test]
    fn compare_passes_equal_results_and_flags_a_perturbed_metric() {
        let base = doc(1000.0, "aa");
        let (code, text) = run(&base, &doc(1000.0, "aa"));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("work_per_s") && text.contains(": ok"));
        // Higher is better for work_per_s: 30 % less is past every bound.
        let (code, text) = run(&base, &doc(700.0, "aa"));
        assert_eq!(code, 1, "{text}");
        assert!(
            text.lines().any(|l| l.contains("work_per_s") && l.ends_with("regressed")),
            "{text}"
        );
        assert!(text.lines().any(|l| l.contains("op_p50_ms") && l.ends_with("ok")), "{text}");
        // 30 % more is an improvement, not a regression.
        assert_eq!(run(&base, &doc(1300.0, "aa")).0, 0);
        // Lower is better for op_p50_ms: a latency that grew tenfold while
        // its repetitions agree to a percent is a regression, not noise.
        let (code, text) = run(&base, &doc_with(1000.0, 20.0, "aa"));
        assert_eq!(code, 1, "{text}");
        assert!(
            text.lines().any(|l| l.contains("op_p50_ms") && l.ends_with("regressed")),
            "{text}"
        );
    }

    #[test]
    fn compare_flags_a_perturbed_digest_and_one_sided_names() {
        let (code, text) = run(&doc(1000.0, "aa"), &doc(1000.0, "ab"));
        assert_eq!(code, 1);
        assert!(text.contains("simulated behaviour changed"), "{text}");

        let mut lopsided = doc(1000.0, "aa");
        if let Json::Obj(top) = &mut lopsided {
            if let Some(Json::Obj(w)) = top.get_mut("workloads") {
                let sim = w.remove("sim_paper").unwrap();
                w.insert("sim_other".into(), sim);
            }
        }
        let (code, text) = run(&doc(1000.0, "aa"), &lopsided);
        assert_eq!(code, 2);
        assert!(text.contains("sim_other: only in one") && text.contains("sim_paper: only in one"));
        assert_eq!(run(&parse("{}").unwrap(), &doc(1.0, "aa")).0, 2);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let e = schema::END_TO_END.iter().find(|e| e.name == "work_per_s").unwrap();
        assert_eq!(verdict(e, 100.0, 100.0, e.bound * 1.5), Verdict::Unresolved);
        assert_eq!(verdict(e, 100.0, 100.0 * (1.0 - e.bound * 1.5), 0.0), Verdict::Regressed);
        assert_eq!(verdict(e, 100.0, 100.0 * (1.0 - e.bound * 0.5), 0.0), Verdict::Ok);
    }

    #[test]
    fn acceptance_needs_steady_sets_and_no_shift() {
        let set = |values: &[f64]| -> Vec<BTreeMap<String, f64>> {
            values
                .iter()
                .map(|v| schema::END_TO_END.iter().map(|e| (e.name.to_string(), *v)).collect())
                .collect()
        };
        let steady = set(&[100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]);
        let mut sink = Vec::new();
        assert!(accept_sets("w", &steady, &steady, &mut sink).unwrap());
        // Every metric moved by 50 %: whichever direction is better, half
        // of them got worse.
        let shifted = set(&[150.0, 151.0, 149.0, 150.5, 149.5, 150.2, 149.8, 150.1, 149.9, 150.0]);
        assert!(!accept_sets("w", &steady, &shifted, &mut sink).unwrap());
        let wild = set(&[50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 70.0, 130.0, 90.0, 110.0]);
        assert!(!accept_sets("w", &wild, &wild, &mut sink).unwrap());
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("unsteady") && text.contains("shifted"), "{text}");
    }
}
