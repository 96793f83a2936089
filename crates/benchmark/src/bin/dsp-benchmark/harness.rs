//! What every workload has in common: the repetition record, the
//! untraced measurement loop that turns repetitions into end-to-end
//! metrics, and the process's `VmHWM`.

use crate::calibrate::Calibrator;
use crate::layers;
use crate::schema;
use crate::span::{Span, Tracer};
use crate::stats::{self, Fnv, Summary};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What one repetition of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Units of work finished inside the timed region (tasks, solves,
    /// cells, jobs admitted, requests answered).
    pub work: u64,
    /// Host seconds of the timed region. Input generation, service boot
    /// and shutdown are never inside it.
    pub wall_s: f64,
    /// Host seconds from the last unit of work to a verified result.
    pub finish_s: f64,
    /// Host milliseconds each operation took (the workload says what an
    /// operation is).
    pub op_ms: Vec<f64>,
    /// Operations attempted / failed or refused. A failing audit counts.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the repetition's simulated statistics.
    pub digest: u64,
    /// Output-check violations; any entry fails the run.
    pub errors: Vec<String>,
    /// The repetition was paced by an open-loop generator on a live clock:
    /// its length and its latencies are set by the send schedule, timers
    /// and thread wake-ups, not by how fast the host runs memory-bound
    /// code, so it is not corrected for the host's slowness.
    pub paced: bool,
    /// The host's slowness read right before and after the finish, where
    /// the workload did that itself; `finish_s` is then corrected by it
    /// instead of by the readings around the whole repetition (or, for a
    /// paced repetition, not at all).
    pub finish_slowness: Option<f64>,
    /// Further named samples a workload took (per request kind, generator
    /// lag, …); the traced run turns them into per-layer metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rep {
    /// The median operation of this repetition (nearest rank).
    pub fn op_p50_ms(&self) -> f64 {
        stats::percentile(&stats::sorted(self.op_ms.clone()), 50.0).unwrap_or(0.0)
    }

    /// Record an output check; a false `ok` becomes a violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One metric as printed: the value plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (repetitions, requests, …).
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    pub fn from_summary(s: Summary, unit: &'static str) -> Metric {
        Metric { value: s.median, unit, samples: s.n, q1: s.q1, q3: s.q3 }
    }

    pub fn single(value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { value, unit, samples, q1: value, q3: value }
    }
}

/// Metrics by name.
pub type Metrics = BTreeMap<&'static str, Metric>;

/// The result of running one workload once (traced or untraced).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// The untraced run's end-to-end metrics in host seconds as measured,
    /// before the correction for host slowness (empty for a traced run,
    /// whose per-layer times are never corrected).
    pub as_measured: Metrics,
    /// Every timed repetition as measured, with the slowness reading it
    /// was corrected by: what `metrics` and `as_measured` are made from.
    pub reps: Vec<RepRecord>,
    /// Free-form facts printed beside the metrics (tail percentile used,
    /// overload verdict, …).
    pub notes: BTreeMap<&'static str, String>,
}

/// One timed repetition of the untraced run, in host seconds as measured.
#[derive(Debug, Clone, Copy)]
pub struct RepRecord {
    pub work: u64,
    pub wall_s: f64,
    pub finish_s: f64,
    pub op_p50_ms: f64,
    /// See [`Rep::paced`].
    pub paced: bool,
    /// How much slower than the quiet reference box the host ran around
    /// this repetition (1.0 on a `--quick` run, which is not calibrated).
    pub slowness: f64,
    /// See [`Rep::finish_slowness`].
    pub finish_slowness: Option<f64>,
}

impl RepRecord {
    /// This repetition in reference-box seconds: its times divided by how
    /// much slower than a quiet reference box the host ran around it (see
    /// [`crate::calibrate`]).
    ///
    /// A paced repetition stays as measured: on the reference box,
    /// correcting an open loop's median round trip and its live-clock drain
    /// by the readings around the whole repetition made them move more
    /// between runs (0.14 → 0.16 and 0.06 → 0.20 of the median), not less.
    /// Its drain is corrected by readings of its own.
    fn corrected(&self) -> RepRecord {
        let by = if self.paced { 1.0 } else { self.slowness };
        RepRecord {
            wall_s: self.wall_s / by,
            op_p50_ms: self.op_p50_ms / by,
            finish_s: self.finish_s / self.finish_slowness.unwrap_or(by),
            ..*self
        }
    }
}

/// How one invocation is shaped.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Host seconds of timed repetitions to aim for.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// A workload: seeded inputs, a repetition over them, and the extra
/// direct-call legs of the traced run.
pub trait Workload {
    type Input;

    /// Independent input sets drawn per run. Host time per unit of work
    /// depends on the drawn inputs (how deep queues get, how hard a MILP
    /// is), so a run draws several sets, cycles its repetitions through
    /// them and reports medians: the run's numbers then move little from
    /// one seed to the next, and a bound can be tight enough to mean
    /// something.
    const VARIANTS: usize;

    /// Build one input set from a seed. The program under test only ever
    /// sees what this returns.
    fn generate(&self, seed: u64, tracer: &Arc<Tracer>) -> Self::Input;

    /// One repetition over a fixed count of work. `warm_up` repetitions
    /// are untimed and may be shortened (so their digest is not compared).
    fn rep(&self, input: &Self::Input, tracer: &Arc<Tracer>, warm_up: bool) -> Rep;

    /// The traced run's direct-call replay legs over this workload's own
    /// inputs (they run only with `--trace 1`).
    fn replay(&self, input: &Self::Input, tracer: &Arc<Tracer>, seed: u64);
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Upper limit on timed cycles, however short they are.
const MAX_CYCLES: usize = 64;

/// The seed of input set `variant` of a run (splitmix64 of the pair).
pub fn variant_seed(seed: u64, variant: usize) -> u64 {
    dsp_core::matrix::mix_seed(seed, variant as u64)
}

/// Draw every input set of a run (a `--quick` run makes do with one).
pub fn generate_all<W: Workload>(w: &W, args: &RunArgs, tracer: &Arc<Tracer>) -> Vec<W::Input> {
    let variants = if args.quick { 1 } else { W::VARIANTS };
    (0..variants).map(|v| w.generate(variant_seed(args.seed, v), tracer)).collect()
}

/// Readings of the host's slowness around timed stretches: each stretch is
/// corrected by the mean of the reading before it and the one after, which
/// is also the next stretch's reading before (see [`crate::calibrate`]).
struct Bracket {
    /// `None` on a `--quick` run: smoke sizes are not worth calibrating
    /// (an unoptimised build spends longer in the kernel than in them).
    host: Option<Calibrator>,
    before: f64,
    seen: Vec<f64>,
}

impl Bracket {
    fn open(args: &RunArgs) -> Bracket {
        let host = (!args.quick).then(Calibrator::new);
        let before = host.as_ref().map_or(1.0, Calibrator::slowness);
        Bracket { host, before, seen: Vec::new() }
    }

    /// Close the current stretch and open the next: the slowness to
    /// correct the closed one by.
    fn close(&mut self) -> f64 {
        let after = self.host.as_ref().map_or(1.0, Calibrator::slowness);
        let mean = (self.before + after) / 2.0;
        self.before = after;
        self.seen.push(mean);
        mean
    }
}

/// The untraced run: set up [`SETUPS`] times (generate every input set +
/// one warm-up repetition), then run whole cycles over the input sets
/// until `seconds` of timed work have passed.
pub fn measure<W: Workload>(w: &W, args: &RunArgs) -> Outcome {
    let off = Arc::new(Tracer::new(false));
    let mut host = Bracket::open(args);
    let mut out = Outcome::default();
    let (mut setup_s, mut setup_measured) = (Vec::new(), Vec::new());
    let mut inputs = Vec::new();
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        let t = Instant::now();
        inputs = generate_all(w, args, &off);
        let mut warm = w.rep(&inputs[0], &off, true);
        let took = t.elapsed().as_secs_f64();
        // A set-up is corrected like the repetition that ends it.
        let slowness = host.close();
        setup_measured.push(took);
        setup_s.push(if warm.paced { took } else { took / slowness });
        out.errors.append(&mut warm.errors);
    }

    // Digests per cycle, in input-set order: simulated behaviour must
    // repeat exactly, so every cycle gives the digests of the first.
    let mut cycles: Vec<Vec<u64>> = Vec::new();
    let mut ops = Vec::new();
    let started = Instant::now();
    while cycles.is_empty()
        || (started.elapsed().as_secs_f64() < args.seconds && cycles.len() < MAX_CYCLES)
    {
        let mut digests = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let mut rep = w.rep(input, &off, false);
            out.reps.push(RepRecord {
                work: rep.work,
                wall_s: rep.wall_s,
                finish_s: rep.finish_s,
                op_p50_ms: rep.op_p50_ms(),
                paced: rep.paced,
                slowness: host.close(),
                finish_slowness: rep.finish_slowness,
            });
            digests.push(rep.digest);
            out.attempted += rep.attempted;
            out.failed += rep.failed;
            out.errors.append(&mut rep.errors);
            ops.append(&mut rep.op_ms);
        }
        cycles.push(digests);
    }
    if cycles.iter().any(|c| *c != cycles[0]) {
        out.errors.push("sim_digest differs between repetitions of the same inputs".into());
    }
    out.digest = digest_of(cycles.swap_remove(0));

    let rss = peak_rss_mb();
    out.as_measured = end_to_end(&setup_measured, &out.reps, rss);
    let corrected: Vec<RepRecord> = out.reps.iter().map(RepRecord::corrected).collect();
    out.metrics = end_to_end(&setup_s, &corrected, rss);
    let ops = stats::sorted(ops);
    if let Some((pct, value)) = stats::tail(&ops) {
        out.notes.insert(
            "op_tail",
            format!("p{pct} = {value} ms as measured, over {} operations", ops.len()),
        );
    }
    let seen = Summary::of(&host.seen).expect("at least one set-up ran");
    out.notes.insert(
        "host_slowness",
        format!("median {} [{}, {}] over {} readings", seen.median, seen.q1, seen.q3, seen.n),
    );
    debug_assert!(schema::END_TO_END.iter().all(|e| out.metrics.contains_key(e.name)));
    out
}

/// The end-to-end metrics of a run: each the median over its set-ups or
/// repetitions, with the quartiles *over repetitions* beside it, so that
/// `q1`/`q3` say how far one repetition is from the next and `compare` can
/// tell a moved median from noise. (`peak_rss_mb` is one reading per
/// process.)
fn end_to_end(setup_s: &[f64], reps: &[RepRecord], peak_rss_mb: f64) -> Metrics {
    let per_rep = |unit: &'static str, f: &dyn Fn(&RepRecord) -> f64| {
        let values: Vec<f64> = reps.iter().map(f).collect();
        Metric::from_summary(Summary::of(&values).expect("at least one repetition ran"), unit)
    };
    let setup = Summary::of(setup_s).expect("at least one set-up ran");
    Metrics::from([
        ("setup_s", Metric::from_summary(setup, "s")),
        ("work_per_s", per_rep("1/s", &|r| r.work as f64 / r.wall_s)),
        ("op_p50_ms", per_rep("ms", &|r| r.op_p50_ms)),
        ("finish_s", per_rep("s", &|r| r.finish_s)),
        ("peak_rss_mb", Metric::single(peak_rss_mb, "MB", 1)),
    ])
}

/// The traced run: one repetition without spans and one with, over the
/// same inputs, then the workload's direct-call replay legs; per-layer
/// metrics come from the recorded spans and counters. Returns the spans
/// too, for `--trace FILE`.
pub fn trace<W: Workload>(w: &W, args: &RunArgs) -> (Outcome, Vec<Span>) {
    let off = Arc::new(Tracer::new(false));
    let tracer = Arc::new(Tracer::new(true));
    let mut out = Outcome::default();
    let inputs = generate_all(w, args, &tracer);
    let input = &inputs[0];
    out.errors.append(&mut w.rep(input, &off, true).errors);
    let mut host = Bracket::open(args);
    let mut untraced = w.rep(input, &off, false);
    let mut traced = w.rep(input, &tracer, false);
    let slowness = host.close();
    if untraced.digest != traced.digest {
        out.errors.push("sim_digest differs between the traced and the untraced repetition".into());
    }
    out.digest = digest_of([traced.digest]);
    for r in [&mut untraced, &mut traced] {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors.append(&mut r.errors);
    }
    w.replay(input, &tracer, args.seed);
    let (spans, counts) = tracer.snapshot();
    if let Some(n) = counts.get(layers::REPLAY_ERRORS) {
        out.errors.push(format!("{n} calls of the replay legs failed"));
    }
    layers::derive(
        &layers::Traced { spans: &spans, counts: &counts, traced: &traced, untraced: &untraced },
        &mut out.metrics,
    );
    out.metrics.insert("bench.reps", Metric::single(2.0, "count", 1));
    // Per-layer times are host seconds as measured; this says how far from
    // quiet the host was while they were taken.
    out.metrics.insert("bench.host_slowness", Metric::single(slowness, "ratio", 2));
    if let Some(verdict) = layers::overloaded(&traced) {
        out.notes.insert("open_loop", verdict);
    }
    debug_assert!(schema::PER_LAYER.iter().all(|p| out.metrics.contains_key(p.name)));
    (out, spans)
}

/// Fold a list of exact values into a digest.
pub fn digest_of(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for v in values {
        h.u64(v);
    }
    h.0
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
