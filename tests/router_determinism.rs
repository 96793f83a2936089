//! Property tier for the placement router (DESIGN.md §10.7): routing is
//! a pure function of the submission order, never of wall-clock timing
//! or which run of the process it is.
//!
//!   * **Restart determinism** — the same job stream against a fresh
//!     federation produces bit-identical shard assignments (observable
//!     through the strided id lanes: id mod N names the owning shard)
//!     and a bit-identical federated drained snapshot.
//!   * **1-shard equivalence** — `--shards 1` drains byte-identical to
//!     an in-process `OnlineDriver` fed the same batches.
//!
//! Everything runs under a frozen clock (`time_scale: 0`), so the only
//! ordering the service ever sees is the submission order the test
//! controls.

use dsp_service::json::Json;
use dsp_service::{
    serve_federated, wire, AdmissionConfig, FederationSpec, JobRequest, OnlineDriver, RoutePolicy,
    ServerConfig,
};
use dsp_sim::EngineConfig;
use dsp_units::{Dur, Time};
use proptest::prelude::*;

fn engine() -> EngineConfig {
    EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(7 * 24 * 3600) }
}

fn spec() -> FederationSpec {
    FederationSpec {
        cluster: dsp_cluster::uniform(4, 1000.0, 2),
        engine: engine(),
        sched_period: Dur::from_secs(60),
        admission: AdmissionConfig { max_pending_tasks: 100_000, check_feasibility: false },
        scheduler: Box::new(|| Box::new(dsp_sched::DspIlpScheduler::default())),
        policy: Box::new(|| {
            let params = dsp_core::config::Params::default();
            Box::new(dsp_preempt::DspPolicy::new(params.dsp_params(true)))
        }),
    }
}

fn config(shards: usize) -> ServerConfig {
    ServerConfig {
        time_scale: 0.0,
        tick: std::time::Duration::from_millis(10),
        shards,
        route: RoutePolicy::Hash,
        ..Default::default()
    }
}

/// Build the deterministic job stream a proptest case describes: one
/// chain-shaped job per entry, batched for submission.
fn stream(task_counts: &[usize], batch: usize) -> Vec<Vec<JobRequest>> {
    let jobs: Vec<JobRequest> = task_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| JobRequest {
            class: if i % 2 == 0 { dsp_dag::JobClass::Small } else { dsp_dag::JobClass::Large },
            deadline: None,
            tasks: (0..n).map(|t| dsp_dag::TaskSpec::sized(1_000.0 + (t as f64) * 613.0)).collect(),
            edges: (1..n as u32).map(|t| (t - 1, t)).collect(),
        })
        .collect();
    jobs.chunks(batch.max(1)).map(|c| c.to_vec()).collect()
}

/// Submit the stream batch-by-batch on one connection, then drain.
/// Returns the per-batch assigned job ids (the router's observable
/// placement: id mod shards = owning shard) and the drained artifact's
/// exact serialized bytes.
fn run_federated(batches: &[Vec<JobRequest>], shards: usize) -> (Vec<Vec<u64>>, String) {
    let handle = serve_federated(spec(), config(shards)).expect("bind ephemeral port");
    let addr = handle.addr.to_string();
    let mut c = dsp_service::Client::connect(&addr).expect("connect");
    let mut assigned = Vec::with_capacity(batches.len());
    for batch in batches {
        let resp = c.call(&wire::submit_request(batch)).expect("submit");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        let ids: Vec<u64> = resp
            .get("ids")
            .and_then(Json::as_arr)
            .expect("ids")
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assigned.push(ids);
    }
    let resp = c.call(&Json::obj(vec![("op", Json::Str("drain".into()))])).expect("drain");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let snapshot = resp.get("snapshot").expect("snapshot").to_string();
    handle.wait();
    (assigned, snapshot)
}

/// The same stream through one in-process driver: no socket, no router.
fn run_single_driver(batches: &[Vec<JobRequest>]) -> String {
    let spec = spec();
    let mut driver = OnlineDriver::new(
        spec.cluster,
        spec.engine,
        spec.sched_period,
        (spec.scheduler)(),
        (spec.policy)(),
        spec.admission,
    );
    for batch in batches {
        driver.submit(batch.clone()).expect("admitted");
    }
    driver.drain().to_json().to_string()
}

proptest! {
    // Each case spins up whole federations; keep the case count modest —
    // the space is small (stream shape × batch × shard count) and the
    // properties are exact equalities, not statistical.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Restarts are invisible: a fresh federation fed the same stream
    /// assigns bit-identical ids (hence shards) and drains to a
    /// bit-identical federated snapshot.
    #[test]
    fn same_stream_is_bit_identical_across_restarts(
        task_counts in proptest::collection::vec(1usize..5, 1..10),
        batch in 1usize..4,
        shards in 1usize..5,
    ) {
        let batches = stream(&task_counts, batch);
        let (ids_a, snap_a) = run_federated(&batches, shards);
        let (ids_b, snap_b) = run_federated(&batches, shards);
        prop_assert_eq!(ids_a, ids_b, "shard assignments must survive a restart");
        prop_assert_eq!(snap_a, snap_b, "federated snapshots must survive a restart");
    }

    /// `--shards 1` is one plain driver behind a socket: byte-identical
    /// drained history to the in-process driver on every stream.
    #[test]
    fn one_shard_is_byte_identical_to_single_driver(
        task_counts in proptest::collection::vec(1usize..5, 1..10),
        batch in 1usize..4,
    ) {
        let batches = stream(&task_counts, batch);
        let (_, federated) = run_federated(&batches, 1);
        let plain = run_single_driver(&batches);
        prop_assert_eq!(federated, plain, "1-shard federation must drain to the plain driver's bytes");
    }
}
