//! Integration tests for the fault-injection extension (the paper's
//! future-work scenario): crashes and stragglers must never break job
//! completion, dependency order, or determinism.

use dsp_cluster::NodeId;
use dsp_core::{config::Params, execute};
use dsp_metrics::RunMetrics;
use dsp_preempt::{DspPolicy, SrptPolicy};
use dsp_sched::DspListScheduler;
use dsp_service::{AdmissionConfig, JobRequest, OnlineDriver};
use dsp_sim::{EngineConfig, FaultPlan};
use dsp_trace::{generate_workload, TraceParams};
use dsp_units::{Dur, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(n: usize, seed: u64) -> Vec<dsp_dag::Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    generate_workload(&mut rng, n, &TraceParams { task_scale: 0.06, ..TraceParams::default() })
}

/// `jobs` on the EC2 profile at Table II's parameters, under `faults`.
fn run(
    jobs: &[dsp_dag::Job],
    sched: &mut dyn dsp_sched::Scheduler,
    policy: &mut dyn dsp_sim::PreemptPolicy,
    faults: FaultPlan,
) -> RunMetrics {
    execute(jobs, &dsp_cluster::ec2(), &Params::default(), sched, policy, faults).metrics
}

fn chaos() -> FaultPlan {
    let mut plan = FaultPlan::none()
        .kill(NodeId(2), Time::from_secs(350))
        .crash(NodeId(5), Time::from_secs(400), Time::from_secs(700))
        .crash(NodeId(9), Time::from_secs(500), Time::from_secs(900));
    for n in [15u32, 16] {
        plan = plan.straggle(NodeId(n), Time::from_secs(450), 0.3);
    }
    plan
}

#[test]
fn dsp_completes_all_jobs_under_chaos() {
    let jobs = workload(12, 1);
    let mut sched = DspListScheduler::default();
    let mut pol = DspPolicy::default();
    let m = run(&jobs, &mut sched, &mut pol, chaos());
    assert_eq!(m.jobs_completed(), 12);
    assert_eq!(m.disorders, 0, "C2 + readiness hold under faults");
    assert!(m.node_failures >= 3);
    assert!(m.fault_rescheduled > 0);
}

#[test]
fn faults_never_speed_things_up() {
    let jobs = workload(10, 2);
    let with = |faults: FaultPlan| {
        let mut sched = DspListScheduler::default();
        let mut pol = DspPolicy::default();
        run(&jobs, &mut sched, &mut pol, faults)
    };
    let healthy = with(FaultPlan::none());
    let faulty = with(chaos());
    assert!(faulty.makespan() >= healthy.makespan());
    assert_eq!(faulty.jobs_completed(), healthy.jobs_completed());
}

#[test]
fn fault_runs_are_deterministic() {
    let jobs = workload(8, 3);
    let once = || {
        let mut sched = DspListScheduler::default();
        let mut pol = DspPolicy::default();
        run(&jobs, &mut sched, &mut pol, chaos())
    };
    assert_eq!(once(), once());
}

#[test]
fn restart_policy_survives_crashes() {
    // SRPT (no checkpointing for *preemptions*) still completes under node
    // crashes — crash recovery itself uses shared-storage checkpoints.
    let jobs = workload(8, 4);
    let mut sched = DspListScheduler::default();
    let mut pol = SrptPolicy;
    let m = run(&jobs, &mut sched, &mut pol, chaos());
    assert_eq!(m.jobs_completed(), 8);
}

#[test]
fn online_driver_migrates_work_off_a_dead_node() {
    // A permanent NodeDown in the middle of a *streaming* run: the online
    // driver must migrate the dead node's running and queued work to the
    // survivors, keep admitting new batches afterwards, and still produce
    // a drained history that passes every verifier rule.
    let params = Params::default();
    let mut d = OnlineDriver::new(
        dsp_cluster::uniform(3, 1000.0, 1),
        EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(24 * 3600) },
        Dur::from_secs(100),
        Box::new(DspListScheduler::default()),
        Box::new(DspPolicy::new(params.dsp_params(true))),
        AdmissionConfig::default(),
    );
    let chain = || JobRequest {
        class: dsp_dag::JobClass::Small,
        deadline: None,
        tasks: vec![dsp_dag::TaskSpec::sized(30_000.0); 3],
        edges: vec![(0, 1), (1, 2)],
    };

    // Three 90 s chains land at the first boundary, one per single-slot
    // node; at t = 105 every node is mid-task.
    d.submit(vec![chain(), chain(), chain()]).unwrap();
    d.advance_to(Time::from_secs(104));
    d.inject_faults(FaultPlan::none().kill(NodeId(0), Time::from_secs(105)));
    d.advance_to(Time::from_secs(150));
    assert!(d.metrics().node_failures >= 1, "the kill must have fired");
    assert!(d.metrics().fault_rescheduled > 0, "node 0's work must migrate");

    // The service keeps admitting after the failure.
    d.submit(vec![chain()]).unwrap();
    let snap = d.drain();
    assert_eq!(d.metrics().jobs_completed(), 4, "all work finishes on the survivors");
    let report = snap.verify();
    assert!(report.passes(), "drained snapshot must pass R1–R6: {report:?}");
    assert!(snap.history.tasks.iter().all(|t| t.completed));
    // Nothing may have *finished* on the dead node after the kill instant.
    for t in &snap.history.tasks {
        assert!(
            t.node != NodeId(0) || t.finish <= Time::from_secs(105),
            "task completed on the dead node after the kill: {t:?}"
        );
    }
}

#[test]
fn permanent_majority_failure_still_drains() {
    // Kill 20 of EC2's 30 nodes shortly after the first batch: everything
    // must migrate to the survivors and finish (slowly).
    let jobs = workload(6, 5);
    let mut plan = FaultPlan::none();
    for n in 0..20u32 {
        plan = plan.kill(NodeId(n), Time::from_secs(320 + n as u64));
    }
    let mut sched = DspListScheduler::default();
    let mut pol = DspPolicy::default();
    let m = run(&jobs, &mut sched, &mut pol, plan);
    assert_eq!(m.jobs_completed(), 6);
    assert!(m.node_failures >= 20);
}
