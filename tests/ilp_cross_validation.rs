//! Cross-validation between the exact MILP arm and the list heuristic:
//! on every instance small enough for exact search, the MILP's planned
//! makespan must match or beat the heuristic's and respect dependency
//! structure.

use dsp_cluster::{uniform, ClusterSpec};
use dsp_dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_sched::{dsp_ilp::IlpOutcome, DspIlpScheduler, DspListScheduler, Scheduler};
use dsp_sim::Schedule;
use dsp_units::{Dur, Time};
use proptest::prelude::*;

fn planned_makespan(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec) -> Dur {
    let mut earliest = Time::MAX;
    let mut latest = Time::ZERO;
    for a in &s.assignments {
        let job = &jobs[a.task.job.idx()];
        let exec = job.task(a.task.index).exec_time(cluster.node(a.node).rate());
        earliest = earliest.min(a.start);
        latest = latest.max(a.start + exec);
    }
    latest.since(earliest)
}

fn planned_start(s: &Schedule, job: u32, v: u32) -> Time {
    s.assignments
        .iter()
        .find(|a| a.task.job.get() == job && a.task.index == v)
        .expect("assignment present")
        .start
}

/// Random small DAG from an edge mask over a fixed candidate edge list.
fn small_job(n: usize, edge_mask: u16, sizes: &[f64]) -> Job {
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
    Job::new(JobId(0), JobClass::Small, Time::ZERO, Time::from_secs(86_400), tasks, dag)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn exact_beats_or_matches_heuristic(
        n in 2usize..6,
        edge_mask in 0u16..512,
        nodes in 1usize..3,
    ) {
        let jobs = vec![small_job(n, edge_mask, &[700.0, 1500.0, 2200.0])];
        let cluster = uniform(nodes, 1000.0, 1);
        let (exact, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        prop_assert!(matches!(outcome, IlpOutcome::Exact | IlpOutcome::Incumbent));
        let list = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        let exact_ms = planned_makespan(&exact, &jobs, &cluster);
        let list_ms = planned_makespan(&list, &jobs, &cluster);
        if outcome == IlpOutcome::Exact {
            prop_assert!(
                exact_ms <= list_ms + Dur::from_millis(1),
                "exact {} lost to heuristic {}", exact_ms, list_ms
            );
        }
        // Dependency order holds in the exact plan.
        for (u, v) in jobs[0].dag.edges() {
            let su = planned_start(&exact, 0, u);
            let sv = planned_start(&exact, 0, v);
            prop_assert!(sv >= su, "edge {u}->{v}: child starts {sv} before parent {su}");
        }
    }
}

#[test]
fn exact_plan_executes_to_its_planned_makespan() {
    // The MILP's planned makespan must be achievable by the simulator (the
    // engine is work-conserving so it can only do better or equal).
    let jobs = vec![small_job(4, 0b1011, &[1000.0, 2000.0])];
    let cluster = uniform(2, 1000.0, 1);
    let (exact, outcome) =
        DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
    assert_eq!(outcome, IlpOutcome::Exact);
    let planned = planned_makespan(&exact, &jobs, &cluster);
    let mut engine =
        dsp_sim::Engine::new(jobs.clone(), cluster.clone(), dsp_sim::EngineConfig::default());
    engine.add_batch(Time::ZERO, exact);
    let m = engine.run(&mut dsp_sim::NoPreempt);
    assert!(m.makespan() <= planned, "executed {} > planned {}", m.makespan(), planned);
}
