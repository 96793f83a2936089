//! End-to-end tests for `dsp-service`: the online driver crossing several
//! scheduling periods with live preemption, admission control shedding
//! load, and the TCP wire protocol round-tripping a full
//! submit → status → metrics → drain session whose snapshot passes every
//! verifier rule.

use dsp_service::json::Json;
use dsp_service::{
    codec, serve_federated, wire, AdmissionConfig, Client, FederationSpec, JobRequest, JobStatus,
    OnlineDriver, ServerConfig, Snapshot,
};
use dsp_sim::EngineConfig;
use dsp_units::{Dur, Time};
use std::sync::Arc;

/// Two 1-slot nodes, a 100 s scheduling period, DSP scheduling and
/// preemption: the service every test here runs, as `serve_federated`
/// takes it.
fn small_spec(max_pending_tasks: usize) -> FederationSpec {
    FederationSpec {
        cluster: dsp_cluster::uniform(2, 1000.0, 1),
        engine: EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(24 * 3600) },
        sched_period: Dur::from_secs(100),
        admission: AdmissionConfig { max_pending_tasks, check_feasibility: true },
        scheduler: Box::new(|| Box::new(dsp_sched::DspListScheduler::default())),
        policy: Box::new(|| {
            let params = dsp_core::config::Params::default();
            Box::new(dsp_preempt::DspPolicy::new(params.dsp_params(true)))
        }),
    }
}

/// The same service as one in-process driver, no socket.
fn small_driver(max_pending_tasks: usize) -> OnlineDriver {
    let spec = small_spec(max_pending_tasks);
    OnlineDriver::new(
        spec.cluster,
        spec.engine,
        spec.sched_period,
        (spec.scheduler)(),
        (spec.policy)(),
        spec.admission,
    )
}

/// Two fat independent tasks — occupies both single-slot nodes for a
/// long stretch once scheduled.
fn bulk_job() -> JobRequest {
    JobRequest {
        class: dsp_dag::JobClass::Small,
        deadline: None,
        tasks: vec![dsp_dag::TaskSpec::sized(200_000.0); 2],
        edges: vec![],
    }
}

/// A single 5 s task with the given deadline offset. With a deadline
/// placed 5 s + 50 ms after an epoch instant, the task's allowable
/// waiting time collapses into Algorithm 1's ε-window exactly at that
/// epoch while it queues behind bulk work — the urgent pass must evict.
fn small_job(deadline: Option<Dur>) -> JobRequest {
    JobRequest {
        class: dsp_dag::JobClass::Small,
        deadline,
        tasks: vec![dsp_dag::TaskSpec::sized(5_000.0)],
        edges: vec![],
    }
}

#[test]
fn online_driver_preempts_across_periods_and_drains_clean() {
    let mut d = small_driver(10_000);

    // Period 1's batch: bulk work that holds both nodes until t = 300 s,
    // so anything arriving later queues behind it.
    d.submit(vec![bulk_job()]).unwrap();
    d.advance_to(Time::from_secs(110));
    assert_eq!(d.periods_elapsed(), 1);
    assert!(matches!(d.status(dsp_dag::JobId(0)), Some(JobStatus::Active(_))));

    // Period 2's batch (arrival t = 110): deadlines at absolute 210.05,
    // 215.05, and 220.05 s. Waiting with 5 s of work left, each hits
    // allowable_wait = 50 ms ≤ ε right on an epoch instant (the epoch
    // grid runs at multiples of 5 s) — deterministic urgent preemptions
    // long before the bulk tasks would finish.
    d.submit(vec![
        small_job(Some(Dur::from_millis(100_050))),
        small_job(Some(Dur::from_millis(105_050))),
        small_job(Some(Dur::from_millis(110_050))),
    ])
    .unwrap();
    d.advance_to(Time::from_secs(210));
    assert_eq!(d.periods_elapsed(), 2);

    // Period 3's batch: more work, proving the service keeps admitting.
    d.submit(vec![small_job(None)]).unwrap();
    d.advance_to(Time::from_secs(310));
    assert_eq!(d.periods_elapsed(), 3);
    assert_eq!(d.batches_scheduled(), 3);
    assert!(
        d.metrics().preemptions > 0,
        "deadline collapse behind bulk tasks must trigger urgent evictions"
    );

    let snap = d.drain();
    let report = snap.verify();
    assert!(report.passes(), "drained snapshot must pass R1–R6: {report:?}");
    assert_eq!(snap.jobs.len(), 5);
    assert!(snap.history.tasks.iter().all(|t| t.completed), "drain runs everything dry");

    // The snapshot survives a JSON round trip and still verifies.
    let text = snap.to_json().to_string();
    let back = Snapshot::from_json(&dsp_service::json::parse(&text).unwrap()).unwrap();
    assert!(back.verify().passes());
    assert_eq!(back.jobs, snap.jobs);
}

/// Every artifact published during a drain keeps its bytes: the jobs in a
/// published view share their graphs and levels with the engine's jobs
/// (copy-on-write), so nothing the engine does afterwards may reach them.
#[test]
fn artifacts_kept_during_a_drain_keep_their_bytes() {
    let chain = || JobRequest {
        class: dsp_dag::JobClass::Small,
        deadline: None,
        tasks: vec![dsp_dag::TaskSpec::sized(30_000.0); 4],
        edges: vec![(0, 1), (1, 2), (0, 3)],
    };
    let mut d = small_driver(10_000);
    d.submit(vec![bulk_job(), chain()]).unwrap();
    d.advance_to(Time::from_secs(110));
    d.submit(vec![chain(), small_job(None)]).unwrap();

    let mut kept: Vec<(Arc<Snapshot>, String)> = Vec::new();
    let drained = d.drain_with(&mut |d| {
        let artifact = Arc::new(d.snapshot());
        let bytes = artifact.to_json().to_string();
        kept.push((artifact, bytes));
    });
    assert!(kept.len() >= 3, "the drain crosses several boundaries: {}", kept.len());
    assert!(kept.windows(2).any(|w| w[0].1 != w[1].1), "the state moved during the drain");
    for (i, (artifact, bytes)) in kept.iter().enumerate() {
        assert!(artifact.to_json().to_string() == *bytes, "artifact {i} changed after it was kept");
    }
    assert_eq!(drained.jobs, kept[kept.len() - 1].0.jobs);
    assert!(drained.verify().passes());
}

#[test]
fn oversized_submissions_are_shed_with_backpressure() {
    let mut d = small_driver(4);
    // A single batch larger than the whole queue bound can never be
    // admitted, regardless of timing.
    let err = d.submit(vec![bulk_job(), bulk_job(), bulk_job()]).unwrap_err();
    assert_eq!(err.reason(), "backpressure");
    // A fitting batch still goes through afterwards.
    d.submit(vec![bulk_job()]).unwrap();
    let snap = d.drain();
    assert!(snap.verify().passes());
}

/// The online driver plans exactly what the offline batch path plans: one
/// seeded trace fed job by job at its arrival instants yields the same
/// combined schedule, assignment for assignment, as `periodic_schedules`
/// over the whole trace.
#[test]
fn online_driver_plans_what_periodic_schedules_plans() {
    use rand::SeedableRng;
    let period = Dur::from_secs(20);
    let cluster = dsp_cluster::ec2();
    let trace = dsp_trace::TraceParams { task_scale: 0.02, ..Default::default() };
    let jobs =
        dsp_trace::generate_workload(&mut rand::rngs::StdRng::seed_from_u64(2018), 12, &trace);

    let mut offline = dsp_sched::DspListScheduler::default();
    let batches = dsp_core::experiment::periodic_schedules(&jobs, &cluster, period, &mut offline);
    assert!(batches.len() > 2, "the trace must span several periods");
    let expected: Vec<_> = batches.into_iter().flat_map(|(_, s)| s.assignments).collect();

    let spec = small_spec(usize::MAX);
    let mut d = OnlineDriver::new(
        cluster,
        spec.engine,
        period,
        (spec.scheduler)(),
        (spec.policy)(),
        AdmissionConfig { max_pending_tasks: usize::MAX, check_feasibility: false },
    );
    for job in &jobs {
        d.advance_to(job.arrival);
        assert_eq!(d.submit(vec![JobRequest::from_job(job)]).unwrap(), vec![job.id]);
    }
    // Cross the last batch's boundary before draining: a drain flushes
    // "now", the offline path at the period's end.
    d.advance_to(d.next_boundary());
    let snap = d.drain();
    assert_eq!(snap.schedule.assignments, expected);
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::obj(pairs)
}

fn call_ok(client: &mut Client, req: &Json) -> Json {
    let resp = client.call(req).expect("wire call");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    resp
}

#[test]
fn tcp_session_submits_polls_and_drains_verified() {
    // 2000 simulated seconds per wall second: a 100 s scheduling period
    // fires every ~50 ms of wall time.
    let handle = serve_federated(
        small_spec(10_000),
        ServerConfig {
            time_scale: 2000.0,
            tick: std::time::Duration::from_millis(5),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr.to_string();

    let mut client = Client::connect(&addr).expect("connect");
    call_ok(&mut client, &obj(vec![("op", Json::Str("ping".into()))]));

    // Submit the bulk batch, then keep feeding urgent batches as periods
    // elapse, until the service has crossed ≥ 3 boundaries.
    call_ok(&mut client, &wire::submit_request(&[bulk_job()]));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut submitted = 1u64;
    loop {
        assert!(std::time::Instant::now() < deadline, "service never crossed 3 periods");
        let m = call_ok(&mut client, &obj(vec![("op", Json::Str("metrics".into()))]));
        let periods = m.get("periods_elapsed").and_then(Json::as_u64).unwrap_or(0);
        if periods >= submitted && submitted < 3 {
            // Land one small batch inside each subsequent period.
            let r = client.call(&wire::submit_request(&[small_job(None)]));
            if r.expect("wire call").get("ok") == Some(&Json::Bool(true)) {
                submitted += 1;
            }
        }
        if periods >= 3 && submitted >= 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Job 0 must be known and either running or done by now.
    let status =
        call_ok(&mut client, &obj(vec![("op", Json::Str("status".into())), ("job", Json::U64(0))]));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("active"));

    // Drain: the connection gets the final snapshot, and it passes every
    // rule after a round trip through text.
    let resp = call_ok(&mut client, &obj(vec![("op", Json::Str("drain".into()))]));
    let snap =
        Snapshot::from_json(resp.get("snapshot").expect("snapshot")).expect("snapshot decodes");
    assert_eq!(snap.jobs.len(), submitted as usize);
    let report = snap.verify();
    assert!(report.passes(), "drained snapshot must pass R1–R6: {report:?}");
    assert_eq!(codec::FORMAT_VERSION, 2);

    handle.wait();
}

#[test]
fn tcp_rejections_carry_stable_reason_tokens() {
    let handle = serve_federated(
        small_spec(4),
        ServerConfig {
            // Freeze simulated time so the pending queue can't drain
            // between the two submissions.
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");

    let resp = client
        .call(&wire::submit_request(&[bulk_job(), bulk_job(), bulk_job()]))
        .expect("wire call");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("reason").and_then(Json::as_str), Some("backpressure"));

    let resp = client.call_raw("this is not json").expect("wire call");
    assert_eq!(resp.get("reason").and_then(Json::as_str), Some("bad_request"));

    let resp = client.call_raw(r#"{"op":"status","job":42}"#).expect("wire call");
    assert_eq!(resp.get("reason").and_then(Json::as_str), Some("unknown_job"));

    handle.shutdown();
    handle.wait();
}
