//! Online service quickstart: boot the dspd service in-process on an
//! ephemeral port, stream jobs to it over the newline-delimited JSON
//! protocol, watch scheduling periods elapse, then drain and audit the
//! final snapshot with the R1–R6 verifier.
//!
//! ```text
//! cargo run --release --example online_service
//! ```
//!
//! The same session works against a standalone daemon (`dspd`) with
//! `dsp submit/status/metrics/drain` — this example
//! just keeps everything in one process.

use dsp_core::config::Params;
use dsp_service::json::Json;
use dsp_service::{
    build_cluster, build_policy, build_scheduler, serve_federated, wire, AdmissionConfig, Client,
    FederationSpec, JobRequest, ServerConfig, Snapshot,
};
use dsp_units::Dur;

fn main() {
    // 1. The service core: the paper's EC2 profile and Table II cadences
    //    (300 s scheduling period, 5 s preemption epoch), with a bounded
    //    admission queue in front.
    let params = Params::default();
    let spec = FederationSpec {
        cluster: build_cluster("ec2").unwrap(),
        engine: params.engine,
        sched_period: params.sched_period,
        admission: AdmissionConfig::default(),
        scheduler: Box::new(|| build_scheduler("dsp").unwrap()),
        policy: Box::new(move || build_policy("dsp", &params).unwrap()),
    };

    // 2. Boot: one wall second = 600 simulated seconds, so a scheduling
    //    period fires every half second of real time.
    let handle = serve_federated(spec, ServerConfig::default()).expect("bind ephemeral port");
    println!("service listening on {}", handle.addr);

    // 3. Stream three batches of jobs over the socket, ~one scheduling
    //    period apart.
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    let batch = |n: usize, deadline: Option<Dur>| -> Vec<JobRequest> {
        (0..n)
            .map(|_| JobRequest {
                class: dsp_dag::JobClass::Small,
                deadline,
                tasks: vec![dsp_dag::TaskSpec::sized(20_000.0); 4],
                edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            })
            .collect()
    };
    for round in 0..3 {
        let resp = client
            .call(&wire::submit_request(&batch(4, Some(Dur::from_secs(3600)))))
            .expect("submit");
        let ids = resp.get("ids").and_then(Json::as_arr).map_or(0, |a| a.len());
        println!("round {round}: submitted {ids} jobs (ok={:?})", resp.get("ok"));
        std::thread::sleep(std::time::Duration::from_millis(600));
    }

    // 4. Poll the service counters once.
    let m = client.call(&Json::obj(vec![("op", Json::Str("metrics".into()))])).expect("metrics");
    println!(
        "periods elapsed: {}, batches scheduled: {}",
        m.get("periods_elapsed").and_then(Json::as_u64).unwrap_or(0),
        m.get("batches_scheduled").and_then(Json::as_u64).unwrap_or(0),
    );

    // 5. Graceful drain: the response carries the final versioned
    //    snapshot; the server shuts down afterwards.
    let resp = client.call(&Json::obj(vec![("op", Json::Str("drain".into()))])).expect("drain");
    let snap = Snapshot::from_json(resp.get("snapshot").expect("snapshot attached"))
        .expect("snapshot decodes");
    handle.wait();

    // 6. Audit the run offline — the same rules `dsp verify` applies.
    let report = snap.verify();
    println!(
        "drained: {} jobs, {} tasks, {} preemptions; verifier: {}",
        snap.jobs.len(),
        snap.history.tasks.len(),
        snap.metrics.preemptions,
        if report.is_empty() { "clean" } else { "see diagnostics" },
    );
    assert!(report.passes(), "drained snapshot must pass R1–R6");
    assert!(snap.history.tasks.iter().all(|t| t.completed));
}
