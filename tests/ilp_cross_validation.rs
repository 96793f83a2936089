//! Cross-validation of the exact MILP arm against the list heuristic and a
//! brute-force optimum: on every instance small enough for exact search,
//! the MILP's planned makespan must match or beat the heuristic's, equal
//! the optimum found by exhaustion, and pass R1–R4; the makespan lower
//! bound must not exceed that optimum.

// Only the oracle is used here; the generator is `crates/sched/tests/ilp_exact.rs`'s.
#[allow(dead_code)]
#[path = "../crates/sched/tests/support/mod.rs"]
mod support;

use dsp_cluster::uniform;
use dsp_dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_sched::{dsp_ilp::IlpOutcome, DspIlpScheduler, DspListScheduler, Scheduler};
use dsp_units::{Dur, Time};
use dsp_verify::{bounds::makespan_lower_bound, check_schedule, VerifyOptions};
use proptest::prelude::*;
use support::{brute_force_makespan, planned_makespan};

/// Random small DAG from an edge mask over a fixed candidate edge list.
fn small_job(id: u32, n: usize, edge_mask: u16, sizes: &[f64]) -> Job {
    let mut dag = Dag::new(n);
    let mut bit = 0;
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if edge_mask & (1 << (bit % 16)) != 0 {
                let _ = dag.add_edge(u, v);
            }
            bit += 1;
        }
    }
    let tasks = (0..n).map(|i| TaskSpec::sized(sizes[i % sizes.len()])).collect();
    Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::from_secs(86_400), tasks, dag)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One or two jobs (≤ 5 tasks) on 1–2 nodes × 1–2 slots, planned at
    /// t = 5 s behind a backlog that drains node `k` after
    /// `backlog_ms / (k + 1)`.
    #[test]
    fn exact_beats_or_matches_heuristic(
        n in 2usize..6,
        edge_mask in 0u16..512,
        second in 0usize..3,
        nodes in 1usize..3,
        slots in 1usize..3,
        backlog_ms in 0u64..3000,
    ) {
        let mut jobs = vec![small_job(0, n, edge_mask, &[700.0, 1500.0, 2200.0])];
        if second.min(5 - n) > 0 {
            jobs.push(small_job(1, second.min(5 - n), edge_mask >> 3, &[900.0, 1300.0]));
        }
        let cluster = uniform(nodes, 1000.0, slots);
        let at = Time::from_secs(5);
        let node_avail: Vec<Time> =
            (0..nodes as u64).map(|k| at + Dur::from_millis(backlog_ms / (k + 1))).collect();
        let (exact, outcome, _) = DspIlpScheduler::default()
            .schedule_with_stats_onto(&jobs, &cluster, at, &node_avail);
        prop_assert!(matches!(outcome, IlpOutcome::Exact | IlpOutcome::Incumbent));
        // R1–R4 (so dependency order and slot capacity) hold in the plan,
        // and nothing starts on a node before its backlog drains.
        let report = check_schedule(&exact, &jobs, &cluster, &VerifyOptions::default());
        prop_assert!(report.is_empty(), "{report}");
        for a in &exact.assignments {
            prop_assert!(a.start >= node_avail[a.node.idx()], "{a:?} precedes its node's drain");
        }
        let exact_ms = planned_makespan(&exact, &jobs, &cluster, at);
        let list = DspListScheduler::default().schedule_onto(&jobs, &cluster, at, &node_avail);
        let list_ms = planned_makespan(&list, &jobs, &cluster, at);
        let optimum = brute_force_makespan(&jobs, &cluster, at, &node_avail);
        let bound = makespan_lower_bound(&jobs, &cluster, at, &node_avail);
        prop_assert!(bound <= optimum, "bound {bound} above the optimum {optimum}");
        if outcome == IlpOutcome::Exact {
            prop_assert!(exact_ms <= list_ms, "exact {exact_ms} lost to heuristic {list_ms}");
            prop_assert_eq!(exact_ms, optimum);
        }
    }
}

#[test]
fn exact_plan_executes_to_its_planned_makespan() {
    // The MILP's planned makespan must be achievable by the simulator (the
    // engine is work-conserving so it can only do better or equal).
    let jobs = vec![small_job(0, 4, 0b1011, &[1000.0, 2000.0])];
    let cluster = uniform(2, 1000.0, 1);
    let (exact, outcome, _) =
        DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
    assert_eq!(outcome, IlpOutcome::Exact);
    let planned = planned_makespan(&exact, &jobs, &cluster, Time::ZERO);
    let mut engine =
        dsp_sim::Engine::new(jobs.clone(), cluster.clone(), dsp_sim::EngineConfig::default());
    engine.add_batch(Time::ZERO, exact);
    let m = engine.run(&mut dsp_sim::NoPreempt);
    assert!(m.makespan() <= planned, "executed {} > planned {}", m.makespan(), planned);
}
