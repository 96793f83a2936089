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
    EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(7 * 24 * 3600) }
}

/// Shard count for this run (`DSP_TEST_SHARDS`, default 1).
fn test_shards() -> usize {
    std::env::var("DSP_TEST_SHARDS").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// The tier's standard service over `nodes` 1-slot nodes.
fn spec(nodes: usize, max_pending_tasks: usize, period_secs: u64) -> FederationSpec {
    FederationSpec {
        cluster: dsp_cluster::uniform(nodes, 1000.0, 1),
        engine: engine(),
        sched_period: Dur::from_secs(period_secs),
        admission: AdmissionConfig { max_pending_tasks, check_feasibility: true },
        scheduler: Box::new(|| Box::new(dsp_sched::DspListScheduler::default())),
        policy: Box::new(|| {
            let params = dsp_core::config::Params::default();
            Box::new(dsp_preempt::DspPolicy::new(params.dsp_params(true)))
        }),
    }
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
    let spec = spec(2 * shards, max_pending_tasks, period_secs);
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

/// The tests that count the threads of the whole test process or time a
/// saturated service run alone (write side); every other test holds the
/// read side while its own threads are alive.
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

/// Threads of this whole test process.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

/// [`thread_count`] once it has held still for 50 ms: the test that just
/// released `HERD_GATE` may still be exiting, and the harness may be
/// starting the next one (which then waits on the gate).
fn settled_thread_count() -> usize {
    let mut last = thread_count();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let now = thread_count();
        if now == last {
            return now;
        }
        last = now;
    }
}

/// The service's whole thread inventory: `serve_federated` adds the
/// reactor pool, `min(available_parallelism, 4)` threads, and one owner
/// per shard — each owner keeps its shard's clock and shard 0's runs the
/// drain, so there is no ticker or drain thread beside them — and
/// `wait` takes every one of them back.
#[test]
fn a_service_is_its_reactor_pool_and_one_owner_per_shard() {
    let _alone = HERD_GATE.write();
    let reactor = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    for shards in [1, 2] {
        let before = settled_thread_count();
        let config = ServerConfig {
            time_scale: 600.0,
            tick: std::time::Duration::from_millis(10),
            shards,
            ..Default::default()
        };
        let handle = serve_federated(spec(4, 100, 60), config).expect("bind ephemeral port");
        assert_eq!(handle.shards(), shards);
        assert_eq!(
            thread_count(),
            before + reactor + shards,
            "{shards} shard(s): {reactor} reactor threads and {shards} owner(s), nothing else"
        );
        handle.shutdown();
        handle.wait();
        // A joined thread can stay listed for a moment after `join`
        // returns (the kernel reaps it just after waking the joiner).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while thread_count() != before {
            assert!(
                std::time::Instant::now() < deadline,
                "{shards} shard(s): threads outlive wait"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

/// The clock moves however full the write lane is. One thread drives
/// 160 closed-loop submitters over blocking sockets into one shard: more
/// submits in flight than its command queue holds, so the queue stays
/// full and the reactor parks the rest. (One shard, whatever
/// `DSP_TEST_SHARDS` says: saturating N queues takes 160·N sockets on
/// each side, past a 1024-descriptor limit at N = 4.) Each submit carries a
/// 40-task job, so every one grows the state its publish copies. The
/// clock is live and crosses a 20 s scheduling period every 0.1 wall
/// seconds; `periods_elapsed`, read on a separate connection, must keep
/// pace with it, since the owner advances its driver whenever a tick is
/// due rather than waiting for a tick to find room in its queue.
#[test]
fn a_saturated_write_lane_keeps_the_clock_moving() {
    use std::io::{BufRead, BufReader, Write};
    let _alone = HERD_GATE.write();
    const PERIOD_SECS: u64 = 20;
    const SCALE: f64 = 200.0;
    let config = ServerConfig {
        time_scale: SCALE,
        tick: std::time::Duration::from_millis(10),
        ..Default::default()
    };
    let handle = serve_federated(spec(2, 100_000, PERIOD_SECS), config).expect("bind");
    let addr = handle.addr.to_string();
    let job = JobRequest { tasks: vec![dsp_dag::TaskSpec::sized(1_000.0); 40], ..two_task_job() };
    let submit = format!("{}\n", wire::submit_request(&[job]));
    let mut lanes: Vec<(std::net::TcpStream, BufReader<std::net::TcpStream>)> = (0..160)
        .map(|_| {
            let stream = std::net::TcpStream::connect(&addr).expect("connect");
            stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).expect("timeout");
            (stream.try_clone().expect("clone"), BufReader::new(stream))
        })
        .collect();
    for (writer, _) in &mut lanes {
        writer.write_all(submit.as_bytes()).expect("first submit");
    }

    let mut reader = dsp_service::Client::connect(&addr).expect("connect");
    let mut periods = || {
        let m = reader.call(&op("metrics")).expect("metrics");
        m.get("periods_elapsed").and_then(Json::as_u64).expect("periods_elapsed")
    };
    let start = std::time::Instant::now();
    let first = periods();
    let mut replies = 0;
    while start.elapsed() < std::time::Duration::from_millis(1500) {
        let (writer, lane) = &mut lanes[replies % 160];
        let mut line = String::new();
        assert!(lane.read_line(&mut line).expect("submit reply") > 0, "closed early");
        let resp = dsp_service::json::parse(&line).expect("reply is JSON");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        writer.write_all(submit.as_bytes()).expect("next submit");
        replies += 1;
    }
    let advanced = periods() - first;
    let wall = start.elapsed().as_secs_f64();
    // The clock crosses wall × SCALE / PERIOD_SECS boundaries; an owner
    // busy with a submit ticks late, so allow it to trail by a fifth.
    let due = (wall * SCALE / PERIOD_SECS as f64) as u64;
    assert!(
        advanced * 5 >= due * 4,
        "periods_elapsed moved {advanced} in {wall:.2} s ({due} due) over {replies} submits"
    );
    drop(lanes);
}
