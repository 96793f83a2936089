//! A guided tour of the paper's dependency-aware priorities (Section IV-A):
//! build the exact DAGs of Fig. 2 and Fig. 3, compute the Eq. 12/13
//! priorities, and watch the orderings the paper argues for fall out.
//!
//! ```text
//! cargo run --release --example priorities_explained
//! ```

use dsp_cluster::NodeId;
use dsp_dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_preempt::{DspParams, PriorityEngine};
use dsp_sim::{EngineConfig, NodeView, TaskSnapshot, WorldCtx};
use dsp_units::{Dur, Mi, ResourceVec, Time};

fn snapshot(job: &Job, v: u32) -> TaskSnapshot {
    TaskSnapshot {
        id: job.task_id(v),
        remaining_work: job.task(v).size,
        remaining_time: Dur::from_secs(10),
        // Queued at time zero with no earlier stints, so at time zero
        // `t^w` is 0 s and `t^a` is 110 − 10 − 0 = 100 s.
        waited: Dur::ZERO,
        wait_since: Some(Time::ZERO),
        deadline: Time::from_secs(110),
        running: false,
        ready: true,
        demand: ResourceVec::cpu_mem(0.5, 0.5),
        size: job.task(v).size,
        preemptions: 0,
    }
}

fn priorities_of(job: &Job) -> Vec<(u32, f64)> {
    let snaps: Vec<TaskSnapshot> = (0..job.num_tasks() as u32).map(|v| snapshot(job, v)).collect();
    let views = vec![NodeView { node: NodeId(0), running: vec![], waiting: snaps, slots: 1 }];
    let jobs = vec![job.clone()];
    let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: EngineConfig::default().epoch };
    let mut map = PriorityEngine::new();
    map.begin_epoch(Time::ZERO, &views, &world, DspParams::default().gamma);
    let mut out: Vec<(u32, f64)> =
        (0..job.num_tasks() as u32).map(|v| (v, map.get(&job.task_id(v)).unwrap())).collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    out
}

fn job_from_edges(n: usize, edges: &[(u32, u32)]) -> Job {
    let mut dag = Dag::new(n);
    for &(u, v) in edges {
        dag.add_edge(u, v).unwrap();
    }
    Job::new(
        JobId(0),
        JobClass::Small,
        Time::ZERO,
        Time::from_secs(1_000),
        vec![TaskSpec::new(Mi::new(10_000.0), ResourceVec::cpu_mem(0.5, 0.5)); n],
        dag,
    )
}

fn main() {
    // ── Fig. 2: T2,T3 ← T1; T4,T5 ← T2; T6,T7 ← T3 (0-indexed here). ──
    println!("Fig. 2 — all other tasks hang off T1, so T1 must outrank everyone:");
    let fig2 = job_from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
    for (v, p) in priorities_of(&fig2) {
        println!("  T{} priority {:8.2}", v + 1, p);
    }
    let order = priorities_of(&fig2);
    assert_eq!(order[0].0, 0, "T1 first, as Section IV-A argues");

    // ── Fig. 3's comparison: same direct fan-out, different depth. ──
    // "T11 has more dependent tasks in the second level than T6 … thus T11
    // has higher priority."
    println!("\nFig. 3 — same first-level fan-out, deeper second level wins:");
    // Shallow: root -> 2 children, each with 1 grandchild (4 descendants).
    let shallow = job_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]);
    // Deep: root -> 2 children, each with 2 grandchildren (6 descendants).
    let deep = job_from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
    let p_shallow = priorities_of(&shallow)[0].1;
    let p_deep = priorities_of(&deep)[0].1;
    println!("  root with 2+2 descendants: {p_shallow:8.2}");
    println!("  root with 2+4 descendants: {p_deep:8.2}");
    assert!(p_deep > p_shallow);

    // ── Leaf factors: Eq. 13 trades remaining, waiting, allowable time. ──
    println!("\nEq. 13 — leaves rank by remaining/waiting/allowable time:");
    let solo = job_from_edges(1, &[]);
    let jobs = vec![solo.clone()];
    let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: EngineConfig::default().epoch };
    for (label, rem, wait) in
        [("short remnant", 1u64, 0u64), ("long remnant", 100, 0), ("long but starved", 100, 300)]
    {
        let mut s = snapshot(&solo, 0);
        s.remaining_time = Dur::from_secs(rem);
        s.deadline = Time::from_secs(100 + rem); // t^a stays 100 s
        s.waited = Dur::from_secs(wait);
        let views = vec![NodeView { node: NodeId(0), running: vec![], waiting: vec![s], slots: 1 }];
        let mut p = PriorityEngine::new();
        p.begin_epoch(Time::ZERO, &views, &world, DspParams::default().gamma);
        println!("  {label:<18} -> {:8.2}", p.get(&solo.task_id(0)).unwrap());
    }
}
