//! Fault tolerance (the paper's future-work scenario): run the full DSP
//! pipeline while nodes crash and straggle, and compare against the
//! fault-free run. Checkpoints live on shared storage, so crashes cost
//! recovery time and migrations, not lost work — and DSP's dependency
//! guarantees (zero disorders) survive the chaos.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use dsp_cluster::NodeId;
use dsp_core::{execute, Params, PreemptMethod, SchedMethod};
use dsp_preempt::DspPolicy;
use dsp_sched::DspListScheduler;
use dsp_sim::FaultPlan;
use dsp_trace::{generate_workload, TraceParams};
use dsp_units::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2018);
    let trace = TraceParams { task_scale: 0.06, ..TraceParams::default() };
    let jobs = generate_workload(&mut rng, 30, &trace);
    let (cluster, params) = (dsp_cluster::ec2(), Params::default());
    let mut sched = SchedMethod::Dsp.build(&params, 0);
    let mut policy = PreemptMethod::Dsp.build(&params);
    let healthy =
        execute(&jobs, &cluster, &params, sched.as_mut(), policy.as_mut(), FaultPlan::none())
            .metrics;

    // A rough day in the cluster: one node dies for good early on, two
    // crash transiently, and three straggle at 40% speed mid-run.
    let mut faults = FaultPlan::none()
        .kill(NodeId(3), Time::from_secs(400))
        .crash(NodeId(7), Time::from_secs(500), Time::from_secs(800))
        .crash(NodeId(12), Time::from_secs(600), Time::from_secs(1_000));
    for n in [20u32, 21, 22] {
        faults = faults.straggle(NodeId(n), Time::from_secs(450), 0.4);
    }
    let mut sched = DspListScheduler::default();
    let mut policy = DspPolicy::default();
    let faulty = execute(&jobs, &cluster, &params, &mut sched, &mut policy, faults).metrics;

    println!("{:<28} {:>12} {:>12}", "", "healthy", "faulty");
    println!(
        "{:<28} {:>12.1} {:>12.1}",
        "makespan (s)",
        healthy.makespan().as_secs_f64(),
        faulty.makespan().as_secs_f64()
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "jobs completed",
        healthy.jobs_completed(),
        faulty.jobs_completed()
    );
    println!("{:<28} {:>12} {:>12}", "node failures", healthy.node_failures, faulty.node_failures);
    println!(
        "{:<28} {:>12} {:>12}",
        "tasks rescheduled by faults", healthy.fault_rescheduled, faulty.fault_rescheduled
    );
    println!("{:<28} {:>12} {:>12}", "disorders", healthy.disorders, faulty.disorders);

    assert_eq!(faulty.jobs_completed(), jobs.len(), "every job survives the faults");
    assert_eq!(faulty.disorders, 0, "dependency order survives the faults");
    assert!(faulty.makespan() >= healthy.makespan(), "faults cannot speed things up");
}
