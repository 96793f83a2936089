//! Federation tier: the sharded service behind the placement router
//! (DESIGN.md §10.7). Three families of guarantees are pinned here:
//!
//!   * **1-shard equivalence** — `--shards 1` is one plain driver behind
//!     a socket: the same job stream drains to a byte-identical snapshot
//!     through `serve_federated` and through an in-process `OnlineDriver`
//!     that no router, queue or codec round trip ever touched.
//!   * **Drain-vs-submit** — a submit racing the drain is admitted if its
//!     shard dequeued it first and refused with the stable `draining`
//!     token otherwise; it is never dropped and never hangs, and once
//!     `metrics` reads `draining: true` no shard admits anything.
//!   * **Federated read/drain coherence** — reads at N > 1 carry the
//!     scalar `state_version` plus per-shard `shard_versions`, and a
//!     federated drain merges per-shard histories into one artifact the
//!     offline verifier accepts.

use dsp_service::json::Json;
use dsp_service::{
    serve_federated, wire, AdmissionConfig, FederationSpec, JobRequest, OnlineDriver, RoutePolicy,
    ServerConfig, ServerHandle, Snapshot,
};
use dsp_sim::EngineConfig;
use dsp_units::{Dur, Time};

fn engine() -> EngineConfig {
    EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(7 * 24 * 3600) }
}

fn spec(nodes: usize, max_pending_tasks: usize) -> FederationSpec {
    FederationSpec {
        cluster: dsp_cluster::uniform(nodes, 1000.0, 1),
        engine: engine(),
        sched_period: Dur::from_secs(60),
        admission: AdmissionConfig { max_pending_tasks, check_feasibility: false },
        scheduler: Box::new(|| Box::new(dsp_sched::DspListScheduler::default())),
        policy: Box::new(|| {
            let params = dsp_core::config::Params::default();
            Box::new(dsp_preempt::DspPolicy::new(params.dsp_params(true)))
        }),
    }
}

fn frozen_config(shards: usize) -> ServerConfig {
    ServerConfig {
        time_scale: 0.0,
        tick: std::time::Duration::from_millis(10),
        shards,
        route: RoutePolicy::Hash,
        ..Default::default()
    }
}

fn one_task_job(size: f64) -> JobRequest {
    JobRequest {
        class: dsp_dag::JobClass::Small,
        deadline: None,
        tasks: vec![dsp_dag::TaskSpec::sized(size)],
        edges: vec![],
    }
}

/// A small deterministic stream with some DAG structure, sized so the
/// drain exercises scheduling across several period boundaries.
fn job_stream() -> Vec<JobRequest> {
    (0..12)
        .map(|i| {
            let n = 1 + (i % 3);
            JobRequest {
                class: if i % 2 == 0 { dsp_dag::JobClass::Small } else { dsp_dag::JobClass::Large },
                deadline: None,
                tasks: (0..n)
                    .map(|t| dsp_dag::TaskSpec::sized(5_000.0 + (t as f64) * 997.0))
                    .collect(),
                edges: (1..n).map(|t| (t - 1, t)).collect(),
            }
        })
        .collect()
}

fn op(name: &str) -> Json {
    Json::obj(vec![("op", Json::Str(name.into()))])
}

fn submit_stream(addr: &str, jobs: &[JobRequest]) -> Json {
    let mut c = dsp_service::Client::connect(addr).expect("connect");
    for chunk in jobs.chunks(3) {
        let resp = c.call(&wire::submit_request(chunk)).expect("submit");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    let resp = c.call(&op("drain")).expect("drain");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    resp.get("snapshot").expect("drain carries the artifact").clone()
}

/// `--shards 1` is one plain driver behind a socket: the stream drained
/// over the wire must serialize to the bytes an in-process driver, fed
/// the same batches with no socket, router or queue in between, drains to.
#[test]
fn one_shard_federation_drains_byte_identical_to_single_driver() {
    let jobs = job_stream();

    let in_process = {
        let spec = spec(4, 100_000);
        let mut driver = OnlineDriver::new(
            spec.cluster,
            spec.engine,
            spec.sched_period,
            (spec.scheduler)(),
            (spec.policy)(),
            spec.admission,
        );
        for chunk in jobs.chunks(3) {
            driver.submit(chunk.to_vec()).expect("admitted");
        }
        driver.drain().to_json().to_string()
    };

    let handle = serve_federated(spec(4, 100_000), frozen_config(1)).expect("bind");
    assert_eq!(handle.shards(), 1);
    let federated = submit_stream(&handle.addr.to_string(), &jobs).to_string();
    wait(handle);

    assert_eq!(in_process, federated, "1-shard federation must drain to the plain driver's bytes");
}

fn wait(handle: ServerHandle) {
    handle.wait();
}

fn ids_of(resp: &Json) -> Vec<u64> {
    resp.get("ids")
        .and_then(Json::as_arr)
        .expect("submit returns ids")
        .iter()
        .filter_map(Json::as_u64)
        .collect()
}

/// Batches take the shards in cursor order, so their ids come from the
/// strided lanes (shard i of N assigns ids ≡ i mod N); a federated
/// `metrics` carries one version per shard, their max as the scalar
/// version, and the shards' pending work summed.
#[test]
fn batches_take_cursor_lanes_and_metrics_aggregate_shards() {
    let handle = serve_federated(spec(4, 100_000), frozen_config(2)).expect("bind");
    assert_eq!(handle.shards(), 2);
    let mut c = dsp_service::Client::connect(&handle.addr.to_string()).expect("connect");

    let chain = |n: u32| JobRequest {
        tasks: vec![dsp_dag::TaskSpec::sized(4_000.0); n as usize],
        edges: (1..n).map(|t| (t - 1, t)).collect(),
        ..one_task_job(4_000.0)
    };
    let a = c.call(&wire::submit_request(&[chain(1)])).expect("submit");
    assert_eq!(ids_of(&a), vec![0], "first batch takes shard 0's lane: {a}");
    let b = c.call(&wire::submit_request(&[chain(3)])).expect("submit");
    assert_eq!(ids_of(&b), vec![1], "second batch takes shard 1's lane: {b}");

    let m = c.call(&op("metrics")).expect("metrics");
    assert_eq!(m.get("ok"), Some(&Json::Bool(true)), "{m}");
    let versions = m.get("shard_versions").and_then(Json::as_arr).expect("shard_versions at N>1");
    assert_eq!(versions.len(), 2, "{m}");
    let max = versions.iter().filter_map(Json::as_u64).max().expect("non-empty");
    assert_eq!(m.get("state_version").and_then(Json::as_u64), Some(max), "{m}");
    assert_eq!(m.get("pending_tasks").and_then(Json::as_u64), Some(1 + 3), "{m}");
    assert_eq!(m.get("draining"), Some(&Json::Bool(false)), "{m}");

    let resp = c.call(&op("drain")).expect("drain");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("decodes");
    assert_eq!(snap.jobs.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![0, 1]);
    assert!(snap.verify().passes(), "{:?}", snap.verify());
    wait(handle);
}

/// Seed a backlog large enough that the drain's dry run takes real time,
/// then start the drain on its own connection.
fn seed_and_drain(addr: &str) -> std::thread::JoinHandle<Json> {
    let mut seeder = dsp_service::Client::connect(addr).expect("connect");
    for _ in 0..30 {
        let batch = [one_task_job(2_000_000.0), one_task_job(2_000_000.0)];
        let resp = seeder.call(&wire::submit_request(&batch)).expect("seed");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut c = dsp_service::Client::connect(&addr).expect("connect");
        c.call(&op("drain")).expect("drain call")
    })
}

/// Check the drained artifact holds the seeded backlog and verifies.
fn check_drained(drain_thread: std::thread::JoinHandle<Json>) {
    let resp = drain_thread.join().expect("drain thread");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("decodes");
    assert!(snap.jobs.len() >= 60, "at least the seeded jobs drain");
    assert!(snap.verify().passes(), "{:?}", snap.verify());
}

/// A submit racing a full federated drain is answered — `ok` if its
/// shard dequeued it before the drain, otherwise shed with `draining`;
/// never dropped, never left hanging on a dead shard queue.
#[test]
fn submits_racing_a_federated_drain_shed_with_stable_tokens() {
    let handle = serve_federated(spec(4, 100_000), frozen_config(2)).expect("bind");
    let addr = handle.addr.to_string();
    let drain_thread = seed_and_drain(&addr);

    let mut racer = dsp_service::Client::connect(&addr).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut refusals = 0u32;
    loop {
        assert!(std::time::Instant::now() < deadline, "drain never completed");
        // The connection may die once the drain finishes and the
        // frontend winds down — that is a clean end of the race, not a
        // dropped submit (every call that got through was answered).
        let Ok(resp) = racer.call(&wire::submit_request(&[one_task_job(1_000.0)])) else {
            break;
        };
        if resp.get("ok") == Some(&Json::Bool(false)) {
            let reason = resp.get("reason").and_then(Json::as_str).expect("reason token");
            assert_eq!(reason, "draining", "race must shed with the stable token");
            refusals += 1;
            if refusals >= 3 {
                break;
            }
        }
    }
    check_drained(drain_thread);
    wait(handle);
}

/// Once `metrics` reads `draining: true`, every shard has stopped
/// admitting: each later submit is refused `draining`, never admitted.
#[test]
fn after_metrics_reads_draining_no_submit_is_admitted() {
    for shards in [1usize, 2] {
        let handle = serve_federated(spec(4, 100_000), frozen_config(shards)).expect("bind");
        let addr = handle.addr.to_string();
        let drain_thread = seed_and_drain(&addr);

        let mut c = dsp_service::Client::connect(&addr).expect("connect");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            assert!(std::time::Instant::now() < deadline, "shards={shards}: never read draining");
            let m = c.call(&op("metrics")).expect("metrics is served until the drain replies");
            if m.get("draining") == Some(&Json::Bool(true)) {
                break;
            }
        }
        for _ in 0..3 {
            // The service closes connections once the drain has replied:
            // every submit that got through was answered.
            let Ok(resp) = c.call(&wire::submit_request(&[one_task_job(1_000.0)])) else {
                break;
            };
            assert_eq!(
                resp.get("reason").and_then(Json::as_str),
                Some("draining"),
                "shards={shards}: a submit after `draining: true` must be refused: {resp}"
            );
        }
        check_drained(drain_thread);
        wait(handle);
    }
}

/// Federated drains merge per-shard histories into one artifact that
/// passes the offline verifier at every shard count the cluster allows.
#[test]
fn federated_drain_verifies_at_every_shard_count() {
    for shards in [1usize, 2, 3, 4] {
        let handle = serve_federated(spec(4, 100_000), frozen_config(shards)).expect("bind");
        assert_eq!(handle.shards(), shards);
        let snap_json = submit_stream(&handle.addr.to_string(), &job_stream());
        let snap = Snapshot::from_json(&snap_json).expect("decodes");
        assert_eq!(snap.jobs.len(), 12, "shards={shards}");
        // Ids come from the strided lanes (shard i assigns i, i+N, …) so
        // they are not contiguous at N > 1 with uneven batch counts —
        // but after the merge they are unique and sorted ascending.
        let ids: Vec<u32> = snap.jobs.iter().map(|j| j.id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "shards={shards}: merged ids {ids:?}");
        assert!(snap.verify().passes(), "shards={shards}: {:?}", snap.verify());
        wait(handle);
    }
}
