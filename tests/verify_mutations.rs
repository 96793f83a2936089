//! Mutation tests for `dsp-verify`: start from a schedule a real scheduler
//! produced (verified clean), apply one seeded corruption, and assert the
//! checker localizes it to exactly the rule that should fire. This is the
//! test that keeps the checker honest — a verifier that accepts corrupted
//! schedules is worse than no verifier.

use dsp_cluster::{uniform, NodeId};
use dsp_core::{config::Params, SchedMethod};
use dsp_dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_sched::{DspListScheduler, Scheduler};
use dsp_sim::Schedule;
use dsp_units::Time;
use dsp_verify::{check_schedule, Rule, VerifyOptions};

/// One 3-task chain job (T0 → T1 → T2), 1000 MI each, roomy deadline.
fn chain_job() -> Vec<Job> {
    let mut dag = Dag::new(3);
    dag.add_edge(0, 1).expect("acyclic");
    dag.add_edge(1, 2).expect("acyclic");
    let tasks = vec![TaskSpec::sized(1000.0), TaskSpec::sized(1000.0), TaskSpec::sized(1000.0)];
    vec![Job::new(JobId(0), JobClass::Small, Time::ZERO, Time::from_secs(1000), tasks, dag)]
}

/// A clean baseline: schedule the chain onto a 2-node, 2-slot cluster.
fn baseline() -> (Vec<Job>, dsp_cluster::ClusterSpec, Schedule) {
    let jobs = chain_job();
    let cluster = uniform(2, 1000.0, 2);
    let mut sched = DspListScheduler::default();
    let schedule = sched.schedule(&jobs, &cluster, Time::ZERO);
    let report = check_schedule(&schedule, &jobs, &cluster, &VerifyOptions::default());
    assert!(report.is_empty(), "baseline must verify clean before mutating:\n{report}");
    (jobs, cluster, schedule)
}

/// The corrupted schedule must fire `rule` (at error severity) and no other
/// error-level rule — corruption localization, not just detection.
fn assert_only_fires(
    schedule: &Schedule,
    jobs: &[Job],
    cluster: &dsp_cluster::ClusterSpec,
    rule: Rule,
) {
    let report = check_schedule(schedule, jobs, cluster, &VerifyOptions::default());
    assert!(report.fired(rule), "{} should have fired:\n{report}", rule.id());
    for d in report.iter() {
        assert_eq!(d.rule, rule, "unexpected extra diagnostic: {d}");
    }
}

#[test]
fn dropped_task_fires_r1() {
    let (jobs, cluster, mut schedule) = baseline();
    schedule.assignments.pop();
    assert_only_fires(&schedule, &jobs, &cluster, Rule::Coverage);
}

#[test]
fn duplicated_assignment_fires_r1() {
    let (jobs, cluster, mut schedule) = baseline();
    let dup = schedule.assignments[0];
    schedule.assignments.push(dup);
    assert_only_fires(&schedule, &jobs, &cluster, Rule::Coverage);
}

#[test]
fn invalid_node_fires_r1() {
    let (jobs, cluster, mut schedule) = baseline();
    schedule.assignments[0].node = NodeId(99);
    // A bogus node index breaks coverage; precedence/capacity cannot even
    // be evaluated for that assignment, so R1 is the only report.
    let report = check_schedule(&schedule, &jobs, &cluster, &VerifyOptions::default());
    assert!(report.fired(Rule::Coverage), "R1 should have fired:\n{report}");
    assert!(!report.passes());
}

/// Pull the chain's last task back to t=0 on the *other* node so only
/// precedence — not slot capacity — is violated.
fn start_last_task_at_zero(schedule: &mut Schedule) {
    let victim =
        schedule.assignments.iter_mut().find(|a| a.task.index == 2).expect("task T2 is scheduled");
    victim.start = Time::ZERO;
    victim.node = NodeId(1);
}

#[test]
fn start_before_parent_finish_fires_r2() {
    let (jobs, cluster, mut schedule) = baseline();
    start_last_task_at_zero(&mut schedule);
    let report = check_schedule(&schedule, &jobs, &cluster, &VerifyOptions::default());
    assert!(report.fired(Rule::Precedence), "R2 should have fired:\n{report}");
    assert!(!report.passes());
    // The same corruption under a dependency-oblivious lens is only a
    // warning: the report notes it but still passes.
    let opts = VerifyOptions { dependency_aware: false, ..VerifyOptions::default() };
    let relaxed = check_schedule(&schedule, &jobs, &cluster, &opts);
    assert!(relaxed.fired(Rule::Precedence) && relaxed.passes(), "{relaxed}");
    // Aalo, FIFO and Random plan with precedence, so their audits hold a
    // break against them as an error.
    for sched in [SchedMethod::Aalo, SchedMethod::Fifo, SchedMethod::Random] {
        let opts = sched.verify_options();
        let mut schedule = sched.build(&Params::default(), 7).schedule(&jobs, &cluster, Time::ZERO);
        let clean = check_schedule(&schedule, &jobs, &cluster, &opts);
        assert!(clean.is_empty(), "{}'s plan must verify clean:\n{clean}", sched.label());
        start_last_task_at_zero(&mut schedule);
        let report = check_schedule(&schedule, &jobs, &cluster, &opts);
        assert!(
            report.fired(Rule::Precedence),
            "{}: R2 should have fired:\n{report}",
            sched.label()
        );
        assert!(!report.passes(), "{}: a precedence break must fail:\n{report}", sched.label());
    }
}

#[test]
fn slot_overlap_fires_r3() {
    let jobs = chain_job();
    // Single node, single slot: piling every task onto it at t=0 must
    // overflow the slot (and, chain edges being what they are, also break
    // precedence — so check R3 fired rather than exclusivity).
    let cluster = uniform(1, 1000.0, 1);
    let mut schedule = Schedule::new();
    for v in 0..3 {
        schedule.assign(jobs[0].task_id(v), NodeId(0), Time::ZERO);
    }
    let report = check_schedule(&schedule, &jobs, &cluster, &VerifyOptions::default());
    assert!(report.fired(Rule::Capacity), "R3 should have fired:\n{report}");
    assert!(!report.passes());
}

#[test]
fn deadline_overrun_fires_r4() {
    let (jobs, cluster, mut schedule) = baseline();
    // Push the final task past the job deadline. R4 is advisory (deadlines
    // are soft in the paper), so the report still passes — but must warn.
    let victim =
        schedule.assignments.iter_mut().find(|a| a.task.index == 2).expect("task T2 is scheduled");
    victim.start = Time::from_secs(2000);
    let report = check_schedule(&schedule, &jobs, &cluster, &VerifyOptions::default());
    assert!(report.fired(Rule::Deadline), "R4 should have fired:\n{report}");
    assert!(report.passes(), "R4 findings are warnings:\n{report}");
    // And with deadline checking off, the corruption is invisible.
    let opts = VerifyOptions { check_deadlines: false, ..VerifyOptions::default() };
    assert!(check_schedule(&schedule, &jobs, &cluster, &opts).is_empty());
}
