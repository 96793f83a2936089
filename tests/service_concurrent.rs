//! Concurrency stress tier for the sharded `dspd` request path: N writers
//! submitting while M readers poll, plus the drain-publishes-snapshots
//! regression. Run under `RUST_TEST_THREADS=1` in CI's serial leg — each
//! test spins up its own thread fleet and the assertions are about
//! cross-thread interleavings, not wall time.
//!
//! `DSP_TEST_SHARDS=N` re-runs the whole tier against an N-shard
//! federation (CI runs a `--shards 4` leg); the exact-count assertions
//! scale with the shard count because routing is deterministic and
//! admission is per-shard. Unset, everything runs at one shard.
//!
//! The service runs on its one front end, the epoll reactor, so the tier
//! is linux-only like `dspd` itself.
//!
//! What the readers assert on every response (per connection):
//!   * `state_version` is non-decreasing — snapshots publish in order and
//!     a connection never observes time running backwards;
//!   * `now_us` and `periods_elapsed` are non-decreasing — no torn reads:
//!     every response is one internally consistent published snapshot;
//!   * failure `reason` tokens come from the stable documented set.

use dsp_service::json::Json;
use dsp_service::{
    serve_federated, wire, AdmissionConfig, FederationSpec, JobRequest, ServerConfig, ServerHandle,
    Snapshot,
};
use dsp_sim::EngineConfig;
use dsp_units::{Dur, Time};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn engine() -> EngineConfig {
    EngineConfig {
        epoch: Dur::from_secs(5),
        sigma: Dur::from_millis(50),
        max_time: Time::from_secs(7 * 24 * 3600),
        lookahead: 4,
    }
}

/// Shard count for this run (`DSP_TEST_SHARDS`, default 1).
fn test_shards() -> usize {
    std::env::var("DSP_TEST_SHARDS").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Serve the tier's standard service at the configured shard count.
/// The cluster grows with the shard count (two 1-slot nodes per shard)
/// so every shard owns the same sub-cluster the 1-shard tier ran on,
/// and `max_pending_tasks` stays a *per-shard* admission bound.
fn serve_sharded(
    max_pending_tasks: usize,
    period_secs: u64,
    mut config: ServerConfig,
) -> (ServerHandle, usize) {
    let shards = test_shards();
    config.shards = shards;
    let spec = FederationSpec {
        cluster: dsp_cluster::uniform(2 * shards, 1000.0, 1),
        engine: engine(),
        sched_period: Dur::from_secs(period_secs),
        admission: AdmissionConfig { max_pending_tasks, check_feasibility: true },
        scheduler: Box::new(|| Box::new(dsp_sched::DspListScheduler::default())),
        policy: Box::new(|| {
            let params = dsp_core::config::Params::default();
            Box::new(dsp_preempt::DspPolicy::new(params.dsp_params(true)))
        }),
    };
    let handle = serve_federated(spec, config).expect("bind ephemeral port");
    assert_eq!(handle.shards(), shards, "cluster must be large enough for the shard count");
    (handle, shards)
}

fn one_task_job(size: f64) -> JobRequest {
    JobRequest {
        class: dsp_dag::JobClass::Small,
        deadline: None,
        tasks: vec![dsp_dag::TaskSpec::sized(size)],
        edges: vec![],
    }
}

fn two_task_job() -> JobRequest {
    JobRequest {
        class: dsp_dag::JobClass::Small,
        deadline: None,
        tasks: vec![dsp_dag::TaskSpec::sized(1_000.0); 2],
        edges: vec![],
    }
}

fn op(name: &str) -> Json {
    Json::obj(vec![("op", Json::Str(name.into()))])
}

/// `an_idle_herd_costs_sockets_not_threads` counts the threads of the
/// whole test process, so it runs alone (write side); every other test
/// holds the read side while its own threads are alive.
static HERD_GATE: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Tracks one connection's monotonicity invariants across responses.
#[derive(Default)]
struct Monotone {
    version: u64,
    now_us: u64,
    periods: u64,
}

impl Monotone {
    fn check(&mut self, resp: &Json) {
        if let Some(v) = resp.get("state_version").and_then(Json::as_u64) {
            assert!(v >= self.version, "state_version went backwards: {} -> {v}", self.version);
            self.version = v;
        }
        if let Some(now) = resp.get("now_us").and_then(Json::as_u64) {
            assert!(now >= self.now_us, "now_us went backwards: {} -> {now}", self.now_us);
            self.now_us = now;
        }
        if let Some(p) = resp.get("periods_elapsed").and_then(Json::as_u64) {
            assert!(p >= self.periods, "periods_elapsed went backwards: {} -> {p}", self.periods);
            self.periods = p;
        }
    }
}

// The one authoritative token table lives in DESIGN.md §10.7; this
// mirror is built from the `wire::reason` constants so a token rename
// fails compilation here instead of silently splitting the protocol.
const STABLE_REASONS: &[&str] = &[
    wire::reason::BAD_REQUEST,
    wire::reason::BACKPRESSURE,
    wire::reason::INFEASIBLE,
    wire::reason::INVALID,
    wire::reason::DRAINING,
    wire::reason::UNKNOWN_JOB,
    wire::reason::BUSY,
    wire::reason::QUIESCED,
];

fn assert_stable_reason(resp: &Json) {
    if resp.get("ok") == Some(&Json::Bool(false)) {
        let reason = resp.get("reason").and_then(Json::as_str).expect("failures carry a reason");
        assert!(STABLE_REASONS.contains(&reason), "unstable reason token {reason:?}");
    }
}

/// Satellite regression: a `status`/`metrics` call completes while a
/// 100-job drain is mid-flight, and the drain publishes *intermediate*
/// snapshots — reads observe several distinct `state_version`s with
/// `draining: true`, not just the final one.
#[test]
fn reads_complete_while_a_hundred_job_drain_is_mid_flight() {
    let _not_during_the_herd = HERD_GATE.read();
    // Frozen clock: every bit of simulation happens inside the drain
    // command, so the whole drain window is observable. A 20 s period
    // forces many boundary publishes while the engine runs dry.
    let (handle, _shards) = serve_sharded(
        100_000,
        20,
        ServerConfig {
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(20),
            ..Default::default()
        },
    );
    let addr = handle.addr.to_string();

    let mut submitter = dsp_service::Client::connect(&addr).expect("connect");
    let jobs: Vec<JobRequest> = (0..100).map(|_| one_task_job(20_000.0)).collect();
    for chunk in jobs.chunks(20) {
        let resp = submitter.call(&wire::submit_request(chunk)).expect("submit");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }

    // Connect (and warm) the reader *before* the drain starts, so its
    // polls race the drain from its very first boundary.
    let mut reader = dsp_service::Client::connect(&addr).expect("connect");
    let mut mono = Monotone::default();
    mono.check(&reader.call(&op("ping")).expect("warm read"));

    let drained = Arc::new(AtomicBool::new(false));
    let drain_thread = {
        let drained = Arc::clone(&drained);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = dsp_service::Client::connect(&addr).expect("connect");
            let resp = c.call(&op("drain")).expect("drain call");
            drained.store(true, Ordering::SeqCst);
            resp
        })
    };

    // Poll from the read lane until the drain lands. Every one of these
    // completes in one round trip — none waits out the drain.
    let mut mid_flight_versions = std::collections::BTreeSet::new();
    let mut status_mid_flight = 0u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !drained.load(Ordering::SeqCst) {
        assert!(std::time::Instant::now() < deadline, "drain never completed");
        let m = reader.call(&op("metrics")).expect("metrics mid-drain");
        mono.check(&m);
        if m.get("draining") == Some(&Json::Bool(true)) {
            mid_flight_versions.insert(m.get("state_version").and_then(Json::as_u64).unwrap_or(0));
            let s = reader
                .call(&Json::obj(vec![("op", Json::Str("status".into())), ("job", Json::U64(0))]))
                .expect("status mid-drain");
            mono.check(&s);
            if s.get("ok") == Some(&Json::Bool(true)) {
                status_mid_flight += 1;
            }
        }
    }
    let resp = drain_thread.join().expect("drain thread");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("decodes");
    assert_eq!(snap.jobs.len(), 100);
    assert!(snap.verify().passes(), "{:?}", snap.verify());

    assert!(status_mid_flight > 0, "status must complete while the drain is in flight");
    assert!(
        mid_flight_versions.len() >= 2,
        "drain must publish intermediate snapshots at boundaries, saw versions \
         {mid_flight_versions:?}"
    );
    handle.wait();
}

/// The stress tier proper: 4 writers hammering `submit` against a tiny
/// admission queue while 3 readers poll, all over a frozen clock so the
/// outcome is deterministic — the pending queue never drains, so exactly
/// `max_pending / batch` submissions are admitted and every later one
/// sheds with the stable `backpressure` token.
#[test]
fn writers_and_readers_race_without_torn_reads() {
    let _not_during_the_herd = HERD_GATE.read();
    const MAX_PENDING: usize = 8; // 4 two-task batches fit per shard, nothing more
    let (handle, shards) = serve_sharded(
        MAX_PENDING,
        100,
        ServerConfig {
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(10),
            ..Default::default()
        },
    );
    let addr = handle.addr.to_string();

    let admitted = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let stop_readers = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let admitted = Arc::clone(&admitted);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let mut c = dsp_service::Client::connect(&addr).expect("connect");
                for _ in 0..25 {
                    let resp = c.call(&wire::submit_request(&[two_task_job()])).expect("submit");
                    assert_stable_reason(&resp);
                    if resp.get("ok") == Some(&Json::Bool(true)) {
                        admitted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        assert_eq!(
                            resp.get("reason").and_then(Json::as_str),
                            Some("backpressure"),
                            "frozen clock leaves no other legal refusal: {resp}"
                        );
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop_readers);
            std::thread::spawn(move || {
                let mut c = dsp_service::Client::connect(&addr).expect("connect");
                let mut mono = Monotone::default();
                let mut reads = 0u64;
                while !stop.load(Ordering::SeqCst) || reads < 50 {
                    let m = c.call(&op("metrics")).expect("metrics");
                    mono.check(&m);
                    let pending =
                        m.get("pending_tasks").and_then(Json::as_u64).expect("pending_tasks");
                    // Federated metrics sum per-shard queues; each shard's
                    // admission bound still holds, so the sum is capped too.
                    assert!(
                        pending <= (MAX_PENDING * shards) as u64,
                        "published snapshot shows an over-admitted queue: {pending}"
                    );
                    // Sparse status probes: an id nothing ever admitted must
                    // yield the stable unknown_job token, concurrently with
                    // the writers churning the id space.
                    let s = c
                        .call(&Json::obj(vec![
                            ("op", Json::Str("status".into())),
                            ("job", Json::U64(1000 + i)),
                        ]))
                        .expect("status");
                    mono.check(&s);
                    assert_eq!(s.get("reason").and_then(Json::as_str), Some("unknown_job"));
                    reads += 1;
                    if reads >= 5000 {
                        break; // safety valve; never hit in practice
                    }
                }
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer thread");
    }
    stop_readers.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().expect("reader thread");
    }

    // Frozen clock ⇒ no queue ever drained: exactly 4 two-task batches
    // fit each shard's 8-task queue, and the router's round-robin hands
    // every shard at least 4 of the 100 batches, so exactly `4 * shards`
    // are admitted and everything later sheds. (A shed batch is never
    // retried on another shard: the router places each batch once.)
    assert_eq!(admitted.load(Ordering::SeqCst), 4 * shards as u64);
    assert_eq!(shed.load(Ordering::SeqCst), 100 - 4 * shards as u64);

    let mut c = dsp_service::Client::connect(&addr).expect("connect");
    let resp = c.call(&op("drain")).expect("drain");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("decodes");
    assert_eq!(snap.jobs.len(), 4 * shards, "exactly the admitted batches drain");
    assert!(snap.verify().passes(), "{:?}", snap.verify());
    handle.wait();
}

/// The `--max-conns` cap: connections over the limit get exactly one
/// reply with the stable `busy` reason token and a close, and closing
/// an admitted connection frees its slot for a newcomer.
#[test]
fn connections_over_max_conns_shed_with_busy() {
    use std::io::BufRead;
    let _not_during_the_herd = HERD_GATE.read();
    // The connection cap is frontend-level and shard-agnostic, but the
    // tier still honors DSP_TEST_SHARDS so the shed path is exercised in
    // front of a federation too.
    let (handle, _shards) = serve_sharded(
        10_000,
        100,
        ServerConfig {
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(10),
            max_conns: 2,
            ..Default::default()
        },
    );
    let addr = handle.addr.to_string();

    // Fill the cap with two live connections (a round trip each proves
    // the server has admitted them, not merely queued the accept).
    let mut a = dsp_service::Client::connect(&addr).expect("connect");
    let mut b = dsp_service::Client::connect(&addr).expect("connect");
    assert_eq!(a.call(&op("ping")).expect("ping").get("ok"), Some(&Json::Bool(true)));
    assert_eq!(b.call(&op("ping")).expect("ping").get("ok"), Some(&Json::Bool(true)));

    // The third connection is shed: one `busy` line, then close. No
    // request is sent — the shed happens at accept.
    let third = std::net::TcpStream::connect(&addr).expect("connect");
    third.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
    let mut line = String::new();
    std::io::BufReader::new(third).read_line(&mut line).expect("busy line");
    let resp = dsp_service::json::parse(&line).expect("busy line is JSON");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert_eq!(resp.get("reason").and_then(Json::as_str), Some("busy"), "{resp}");

    // Release one slot; a newcomer must eventually be admitted (the
    // count drops when the server notices the close, so poll).
    drop(a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        assert!(std::time::Instant::now() < deadline, "freed slot never re-admitted");
        if let Ok(mut c) = dsp_service::Client::connect(&addr) {
            if let Ok(r) = c.call(&op("ping")) {
                if r.get("ok") == Some(&Json::Bool(true)) {
                    break;
                }
                assert_eq!(r.get("reason").and_then(Json::as_str), Some("busy"), "{r}");
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let resp = b.call(&op("drain")).expect("drain");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    handle.wait();
}

/// The reactor's reason to exist: connections cost sockets, not threads.
/// 300 idle connections park on the event loops (every 64th also
/// round-trips a `ping` — `connect` returns on the kernel handshake, so
/// the ping is what proves sockets are adopted rather than left in the
/// backlog) and the process's thread count does not move; 20 active
/// clients are served through the herd, and the drain still audits clean.
#[test]
fn an_idle_herd_costs_sockets_not_threads() {
    // /proc/self/task counts the whole test process: keep the other
    // tests' servers and client fleets out of the window.
    let _alone = HERD_GATE.write();
    let thread_count = || std::fs::read_dir("/proc/self/task").expect("procfs").count();
    let (handle, _shards) = serve_sharded(
        100_000,
        100,
        ServerConfig {
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(10),
            ..Default::default()
        },
    );
    let addr = handle.addr.to_string();

    // A little real state, so reads serialize something and the drain
    // has work to audit.
    let mut submitter = dsp_service::Client::connect(&addr).expect("connect");
    for _ in 0..4 {
        let resp = submitter.call(&wire::submit_request(&[two_task_job()])).expect("submit");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }

    let threads_before = thread_count();
    let mut herd = Vec::with_capacity(300);
    for i in 0..300 {
        if i % 64 == 63 {
            let mut probe = dsp_service::Client::connect(&addr).expect("probe connect");
            let pong = probe.call(&op("ping")).expect("probe ping");
            assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");
        }
        herd.push(std::net::TcpStream::connect(&addr).expect("idle connect"));
    }

    let mut fleet: Vec<dsp_service::Client> =
        (0..20).map(|_| dsp_service::Client::connect(&addr).expect("active connect")).collect();
    for _ in 0..5 {
        for client in &mut fleet {
            let m = client.call(&op("metrics")).expect("read through the herd");
            assert_eq!(m.get("ok"), Some(&Json::Bool(true)), "{m}");
        }
    }
    assert_eq!(
        thread_count(),
        threads_before,
        "320 more connections must not cost a single thread"
    );

    let resp = submitter.call(&op("drain")).expect("drain");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("decodes");
    assert_eq!(snap.jobs.len(), 4);
    assert!(snap.verify().passes(), "{:?}", snap.verify());
    drop(herd);
    drop(fleet);
    handle.wait();
}
