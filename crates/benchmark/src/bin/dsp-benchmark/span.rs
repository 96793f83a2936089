//! In-memory span recorder for the traced run.
//!
//! A span is `{name, start_ns, end_ns, parent, req}`: one root span per
//! repetition or request, child spans around every public call into a
//! layer. Spans stay in memory and are written as JSON lines when the
//! benchmark ends (`--trace FILE`). A layer's *self time* is its span minus
//! the part of that interval its direct children cover.
//!
//! The recorder is driven from outside the program under test: spans wrap
//! calls into `dsp_*` public functions; nothing inside those crates knows
//! it exists. An untraced run uses a tracer that is off, whose calls
//! return before reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<u32>,
    /// Request or repetition the span belongs to (spans of one request
    /// share it).
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans of the thread that uses `scope` (the harness's main
    /// thread); other threads hand in finished spans through `record`.
    stack: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

/// The recorder. Shared by `Arc` because the timed scheduler/policy
/// wrappers are moved into boxes the program under test owns.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { epoch: Instant::now(), on, inner: Mutex::new(Inner::default()) }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on the recorder's clock (0 for instants before its creation).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a panic while recording a span already failed the run")
    }

    /// Run `f` inside a span nested under the innermost open one.
    pub fn scope<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let id = {
            let mut g = self.lock();
            let id = g.spans.len() as u32;
            let parent = g.stack.last().copied();
            g.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
            g.stack.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut g = self.lock();
        g.spans[id as usize].end_ns = end_ns;
        g.stack.pop();
        out
    }

    /// Hand in a finished root span measured on another thread.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        if self.on {
            self.lock().spans.push(Span { name, start_ns, end_ns, parent: None, req });
        }
    }

    /// Add to a named counter (counts are recorded at the same boundaries
    /// as spans, so ratios are measured where the work happens).
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on {
            *self.lock().counts.entry(name).or_default() += n;
        }
    }

    /// Raise a named counter to at least `n` (high-water marks).
    pub fn count_max(&self, name: &'static str, n: u64) {
        if self.on {
            let mut g = self.lock();
            let slot = g.counts.entry(name).or_default();
            *slot = (*slot).max(n);
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        let g = self.lock();
        (g.spans.clone(), g.counts.clone())
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − part covered by direct children).
    pub self_ns: u64,
    pub calls: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Total and self time per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = children.remove(&(i as u32)).unwrap_or_default();
        let layer = out.entry(s.name).or_default();
        layer.total_ns += s.dur_ns();
        layer.self_ns += s.dur_ns() - covered(kids, s.start_ns, s.end_ns);
        layer.calls += 1;
    }
    out
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Write spans as JSON lines, one object per span, `id` = line index.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, req: 0 }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("engine", 10, 60, Some(0)),
            span("policy", 20, 30, Some(1)),
            span("policy", 40, 45, Some(1)),
            span("verify", 70, 90, Some(0)),
        ];
        let l = layers(&spans);
        assert_eq!(l["rep"], Layer { total_ns: 100, self_ns: 30, calls: 1 });
        assert_eq!(l["engine"], Layer { total_ns: 50, self_ns: 35, calls: 1 });
        assert_eq!(l["policy"], Layer { total_ns: 15, self_ns: 15, calls: 2 });
        assert_eq!(l["verify"], Layer { total_ns: 20, self_ns: 20, calls: 1 });
        // Self times of a tree add up to its root.
        assert_eq!(l.values().map(|v| v.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 10, 50, None),
            span("a", 0, 30, Some(0)),  // starts before the parent
            span("b", 20, 40, Some(0)), // overlaps a
            span("c", 45, 90, Some(0)), // ends after the parent
        ];
        // Covered: [10,40] ∪ [45,50] = 35 of 40.
        assert_eq!(layers(&spans)["parent"].self_ns, 5);
    }

    #[test]
    fn scope_nests_and_an_off_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.scope("outer", 7, || t.scope("inner", 7, || 42));
        assert_eq!(v, 42);
        t.record("other-thread", 1, 2, 9);
        t.count("actions", 3);
        t.count("actions", 2);
        let (spans, counts) = t.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].req), ("inner", Some(0), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[2].parent, None);
        assert_eq!(counts["actions"], 5);

        let off = Tracer::new(false);
        assert_eq!(off.scope("x", 0, || 1), 1);
        off.record("y", 0, 1, 0);
        off.count("z", 1);
        let (spans, counts) = off.snapshot();
        assert!(spans.is_empty() && counts.is_empty());
    }
}
