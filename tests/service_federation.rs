//! Federation tier: the sharded service behind the placement router
//! (DESIGN.md §10.7). Three families of guarantees are pinned here:
//!
//!   * **1-shard equivalence** — `--shards 1` is one plain driver behind
//!     a socket: the same job stream drains to a byte-identical snapshot
//!     through `serve_federated` and through an in-process `OnlineDriver`
//!     that no router, queue or codec round trip ever touched.
//!   * **Drain-vs-submit at shard granularity** — a submit the router
//!     accepted after a shard entered quiesce is rerouted to a live
//!     shard or shed with a stable reason token (`quiesced` when every
//!     shard refused, `draining` once a federation drain latched); it is
//!     never dropped and never hangs. All under a frozen clock so the
//!     outcomes are deterministic.
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
    EngineConfig {
        epoch: Dur::from_secs(5),
        sigma: Dur::from_millis(50),
        max_time: Time::from_secs(7 * 24 * 3600),
        lookahead: 4,
    }
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

/// Satellite regression: after one shard enters quiesce, a submit the
/// router sent there is rerouted to a live shard — observable through
/// the id lanes (shard i of N assigns ids ≡ i mod N) — and admitted,
/// not dropped, not refused.
#[test]
fn submit_after_shard_quiesce_is_rerouted_to_a_live_shard() {
    let handle = serve_federated(spec(4, 100_000), frozen_config(2)).expect("bind");
    assert_eq!(handle.shards(), 2);
    let addr = handle.addr.to_string();
    let mut c = dsp_service::Client::connect(&addr).expect("connect");

    // Two warm-up batches land on shards 0 and 1 in cursor order and
    // take ids from the strided lanes: 0 (shard 0), then 1 (shard 1).
    let ids_of = |resp: &Json| -> Vec<u64> {
        resp.get("ids")
            .and_then(Json::as_arr)
            .expect("submit returns ids")
            .iter()
            .filter_map(Json::as_u64)
            .collect()
    };
    let a = c.call(&wire::submit_request(&[one_task_job(4_000.0)])).expect("submit");
    assert_eq!(a.get("ok"), Some(&Json::Bool(true)), "{a}");
    assert_eq!(ids_of(&a), vec![0], "first batch takes shard 0's lane");
    let b = c.call(&wire::submit_request(&[one_task_job(4_000.0)])).expect("submit");
    assert_eq!(ids_of(&b), vec![1], "second batch takes shard 1's lane");

    // Freeze shard 0's intake, exactly as the federated drain's phase
    // one does, and keep submitting. The cursor still routes every
    // other batch to shard 0 — each of those must come back admitted
    // with a shard-1 id (odd), proving the reroute, never an error.
    assert!(handle.quiesce_shard(0), "quiesce ack");
    for _ in 0..6 {
        let resp = c.call(&wire::submit_request(&[one_task_job(4_000.0)])).expect("submit");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "post-quiesce submit dropped: {resp}");
        for id in ids_of(&resp) {
            assert_eq!(id % 2, 1, "rerouted batch must take the live shard's id lane, got {id}");
        }
    }

    // Federated reads stay coherent mid-quiesce: the scalar version is
    // the max and the per-shard vector is present with one entry per
    // shard.
    let m = c.call(&op("metrics")).expect("metrics");
    assert_eq!(m.get("ok"), Some(&Json::Bool(true)), "{m}");
    let versions = m.get("shard_versions").and_then(Json::as_arr).expect("shard_versions at N>1");
    assert_eq!(versions.len(), 2);
    let max = versions.iter().filter_map(Json::as_u64).max().expect("non-empty");
    assert_eq!(m.get("state_version").and_then(Json::as_u64), Some(max));
    assert_eq!(m.get("pending_tasks").and_then(Json::as_u64), Some(8), "2 + 6 rerouted");

    // The federated drain still collects the quiesced shard's work and
    // the merged artifact verifies.
    let resp = c.call(&op("drain")).expect("drain");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("decodes");
    assert_eq!(snap.jobs.len(), 8, "every admitted job drains, including shard 0's");
    assert!(snap.verify().passes(), "{:?}", snap.verify());
    wait(handle);
}

/// When every shard has quiesced but no federation drain latched, the
/// reroute walk exhausts the ring and the submit sheds with the stable
/// retryable `quiesced` token — a reply always arrives.
#[test]
fn submit_with_every_shard_quiesced_sheds_with_quiesced_token() {
    let handle = serve_federated(spec(4, 100_000), frozen_config(2)).expect("bind");
    let addr = handle.addr.to_string();
    let mut c = dsp_service::Client::connect(&addr).expect("connect");

    assert!(handle.quiesce_shard(0));
    assert!(handle.quiesce_shard(1));
    for _ in 0..3 {
        let resp = c.call(&wire::submit_request(&[one_task_job(4_000.0)])).expect("submit");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
        assert_eq!(
            resp.get("reason").and_then(Json::as_str),
            Some("quiesced"),
            "exhausted reroute must shed with the stable token: {resp}"
        );
    }
    // Reads keep serving from the cells while all intake is frozen.
    let pong = c.call(&op("ping")).expect("ping");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");

    let resp = c.call(&op("drain")).expect("drain");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    wait(handle);
}

/// A submit racing a full federated drain is answered — `ok` if it beat
/// the latch, otherwise shed with `draining` (or `quiesced` in the
/// narrow window before the latch propagates); never dropped, never
/// left hanging on a dead shard queue.
#[test]
fn submits_racing_a_federated_drain_shed_with_stable_tokens() {
    let handle = serve_federated(spec(4, 100_000), frozen_config(2)).expect("bind");
    let addr = handle.addr.to_string();

    // Enough queued work that the drain's dry run takes real time.
    let mut seeder = dsp_service::Client::connect(&addr).expect("connect");
    for _ in 0..30 {
        let batch = [one_task_job(50_000.0), one_task_job(50_000.0)];
        let resp = seeder.call(&wire::submit_request(&batch)).expect("seed");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }

    let drain_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = dsp_service::Client::connect(&addr).expect("connect");
            c.call(&op("drain")).expect("drain call")
        })
    };

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
            assert!(
                reason == "draining" || reason == "quiesced",
                "race must shed with a stable token, got {reason:?}"
            );
            refusals += 1;
            if refusals >= 3 {
                break;
            }
        }
    }
    let resp = drain_thread.join().expect("drain thread");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("decodes");
    assert!(snap.jobs.len() >= 30, "at least the seeded jobs drain");
    assert!(snap.verify().passes(), "{:?}", snap.verify());
    wait(handle);
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
