//! Quickstart: generate a trace-like workload, run the full DSP pipeline
//! (offline dependency-aware scheduling + online dependency-aware
//! preemption) on the simulated EC2 cluster, and print the headline
//! metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dsp_core::sim::FaultPlan;
use dsp_core::{execute, Params, Plan, PreemptMethod, SchedMethod};
use dsp_trace::{generate_workload, TraceParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A reproducible workload: 30 jobs with Google-trace-like marginals
    //    and window-rule DAGs (depth ≤ 5, out-degree ≤ 15).
    let mut rng = StdRng::seed_from_u64(2018);
    let trace = TraceParams { task_scale: 0.06, ..TraceParams::default() };
    let jobs = generate_workload(&mut rng, 30, &trace);
    let total_tasks: usize = jobs.iter().map(|j| j.num_tasks()).sum();
    println!("workload: {} jobs, {} tasks", jobs.len(), total_tasks);

    // 2. The system: the paper's EC2 profile (30 nodes, 2660 MIPS) with
    //    Table II parameters, DSP's list scheduler offline and Algorithm 1
    //    online, built from the method table.
    let (cluster, params) = (dsp_cluster::ec2(), Params::default());
    let plan = Plan::of(&jobs, &cluster, &params, SchedMethod::Dsp, 0);
    let mut policy = PreemptMethod::Dsp.build(&params);

    // 3. Run the plan and report.
    let run = execute(&plan, &jobs, &cluster, &params, policy.as_mut(), FaultPlan::none());
    let m = run.metrics;
    println!("makespan:            {:.2} s", m.makespan().as_secs_f64());
    println!("throughput:          {:.3} tasks/ms", m.throughput_tasks_per_ms());
    println!("avg job waiting:     {:.2} s", m.avg_job_waiting().as_secs_f64());
    println!("preemptions:         {}", m.preemptions);
    println!("disorders:           {}", m.disorders);
    println!("deadline hit rate:   {:.0}%", m.deadline_hit_rate() * 100.0);
    assert_eq!(m.jobs_completed(), jobs.len());
    assert_eq!(m.disorders, 0, "DSP never dispatches against the dependency order");
}
