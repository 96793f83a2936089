//! The Section III ILP, exactly: build a small DAG instance, solve the
//! linearized MILP with the from-scratch branch-and-bound solver, and
//! compare against the list heuristic and the critical-path lower bound.
//!
//! ```text
//! cargo run --release --example ilp_exact
//! ```

use dsp_cluster::uniform;
use dsp_dag::{critical_path_len, Dag, Job, JobClass, JobId, TaskSpec};
use dsp_sched::{dsp_ilp::IlpOutcome, DspIlpScheduler, DspListScheduler, Scheduler};
use dsp_sim::Schedule;
use dsp_units::{Dur, Time};

fn planned_makespan(s: &Schedule, jobs: &[Job], cluster: &dsp_cluster::ClusterSpec) -> Dur {
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

fn main() {
    // The Fig. 2 DAG: T1 fans out to two branches of two leaves each, with
    // heterogeneous task sizes so placement actually matters.
    let mut dag = Dag::new(7);
    for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)] {
        dag.add_edge(u, v).unwrap();
    }
    let sizes = [2000.0, 1000.0, 3000.0, 500.0, 1500.0, 2500.0, 1000.0];
    let tasks: Vec<TaskSpec> = sizes.iter().map(|&s| TaskSpec::sized(s)).collect();
    let jobs =
        vec![Job::new(JobId(0), JobClass::Small, Time::ZERO, Time::from_secs(3600), tasks, dag)];
    let cluster = uniform(2, 1000.0, 1); // two 1000-MIPS single-slot nodes

    let exec: Vec<Dur> = jobs[0].exec_estimates(cluster.mean_rate());
    let lower_bound = critical_path_len(&jobs[0].dag, &exec);
    println!("critical-path lower bound: {:.2} s", lower_bound.as_secs_f64());

    let (exact, outcome, _) =
        DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
    let exact_ms = planned_makespan(&exact, &jobs, &cluster);
    println!(
        "exact MILP ({}): makespan {:.2} s",
        match outcome {
            IlpOutcome::Exact => "proven optimal",
            IlpOutcome::Incumbent => "incumbent",
            IlpOutcome::Fallback => "fell back",
        },
        exact_ms.as_secs_f64()
    );
    for a in &exact.assignments {
        println!("  {} -> {} at {}", a.task, a.node, a.start);
    }

    let list = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
    let list_ms = planned_makespan(&list, &jobs, &cluster);
    println!("list heuristic: makespan {:.2} s", list_ms.as_secs_f64());

    assert!(exact_ms >= lower_bound);
    assert!(exact_ms <= list_ms, "the exact solution can never lose to the heuristic");
}
