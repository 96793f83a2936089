//! Property-based cross-crate invariants: random DAG workloads through the
//! full pipeline must satisfy `dsp-verify`'s rules — coverage (R1),
//! precedence (R2), capacity (R3), deadline feasibility (R4) for every
//! scheduler, and the conservation rules (R5/R6) for simulated execution —
//! plus the classic makespan lower bounds.

use dsp_cluster::uniform;
use dsp_dag::{critical_path_len, generate::gen_dag, DagShape, Job, JobClass, JobId, TaskSpec};
use dsp_sched::{
    AaloScheduler, DspListScheduler, FifoScheduler, RandomScheduler, Scheduler, TetrisScheduler,
};
use dsp_sim::{Engine, EngineConfig, NoPreempt};
use dsp_units::{Dur, Mi, ResourceVec, Time};
use dsp_verify::{check_execution, check_schedule, Rule, VerifyOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a random job from proptest-chosen structure parameters.
fn mk_job(id: u32, n_tasks: usize, shape_sel: u8, sizes: &[f64], seed: u64) -> Job {
    let shape = match shape_sel % 5 {
        0 => DagShape::Independent,
        1 => DagShape::Chain,
        2 => DagShape::FanOut,
        3 => DagShape::ForkJoin,
        _ => DagShape::Layered { depth: 4 },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = gen_dag(&mut rng, n_tasks, shape, 15);
    let tasks: Vec<TaskSpec> = (0..n_tasks)
        .map(|i| {
            TaskSpec::new(Mi::new(sizes[i % sizes.len()]), ResourceVec::new(0.3, 0.3, 0.02, 0.02))
        })
        .collect();
    Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::from_secs(100_000), tasks, dag)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every dependency-aware scheduler produces a plan that is clean under
    /// R1 (coverage), R2 (precedence) and R3 (capacity) on every DAG shape;
    /// the generous test deadline keeps R4 quiet too.
    #[test]
    fn dep_aware_schedulers_verify_clean(
        n_tasks in 1usize..25,
        shape in 0u8..5,
        nodes in 1usize..6,
        slots in 1usize..4,
        seed in 0u64..1000,
    ) {
        let jobs = vec![mk_job(0, n_tasks, shape, &[500.0, 1200.0, 2500.0], seed)];
        let cluster = uniform(nodes, 1000.0, slots);
        let mut scheds: Vec<Box<dyn Scheduler>> = vec![
            Box::new(DspListScheduler::default()),
            Box::new(TetrisScheduler::with_simple_dep()),
            Box::new(AaloScheduler::default()),
            Box::new(FifoScheduler),
            Box::new(RandomScheduler::new(seed)),
        ];
        for s in scheds.iter_mut() {
            let schedule = s.schedule(&jobs, &cluster, Time::ZERO);
            let report = check_schedule(&schedule, &jobs, &cluster, &VerifyOptions::default());
            prop_assert!(
                report.is_empty(),
                "{} broke an invariant:\n{}", s.name(), report
            );
        }
    }

    /// TetrisW/oDep ignores dependencies by design: verified with
    /// `dependency_aware: false` it must still pass (R2 findings downgrade
    /// to warnings; R1/R3 must stay clean).
    #[test]
    fn dep_oblivious_tetris_passes_downgraded(
        n_tasks in 1usize..25,
        shape in 0u8..5,
        nodes in 1usize..6,
        seed in 0u64..1000,
    ) {
        let jobs = vec![mk_job(0, n_tasks, shape, &[500.0, 1200.0], seed)];
        let cluster = uniform(nodes, 1000.0, 2);
        let mut s = TetrisScheduler::without_dep();
        let schedule = s.schedule(&jobs, &cluster, Time::ZERO);
        let opts = VerifyOptions { dependency_aware: false, ..VerifyOptions::default() };
        let report = check_schedule(&schedule, &jobs, &cluster, &opts);
        prop_assert!(report.passes(), "TetrisW/oDep errored:\n{report}");
        prop_assert!(!report.fired(Rule::Coverage), "R1 fired:\n{report}");
        prop_assert!(!report.fired(Rule::Capacity), "R3 fired:\n{report}");
    }

    /// Simulated execution completes all tasks, satisfies the conservation
    /// rules R5/R6 against the engine's own metrics, and never beats the
    /// critical path or total-work-over-total-capacity.
    #[test]
    fn simulation_respects_lower_bounds(
        n_tasks in 1usize..20,
        shape in 0u8..5,
        nodes in 1usize..5,
        seed in 0u64..1000,
    ) {
        let jobs = vec![mk_job(0, n_tasks, shape, &[800.0, 1600.0], seed)];
        let cluster = uniform(nodes, 1000.0, 1);
        let mut sched = DspListScheduler::default();
        let schedule = sched.schedule(&jobs, &cluster, Time::ZERO);
        let mut engine = Engine::new(jobs.clone(), cluster.clone(), EngineConfig::default());
        engine.add_batch(Time::ZERO, schedule);
        let m = engine.run(&mut NoPreempt);

        prop_assert_eq!(m.tasks_completed as usize, n_tasks);
        prop_assert_eq!(m.jobs_completed(), 1);
        prop_assert_eq!(m.disorders, 0);
        prop_assert_eq!(m.preemptions, 0);

        let exec_report = check_execution(&engine.history(), Some(&m));
        prop_assert!(exec_report.is_empty(), "R5/R6 violated:\n{exec_report}");

        // Lower bound 1: the DAG's critical path at node rate.
        let exec: Vec<Dur> = jobs[0].exec_estimates(cluster.mean_rate());
        let cp = critical_path_len(&jobs[0].dag, &exec);
        prop_assert!(m.makespan() >= cp, "makespan {} < critical path {}", m.makespan(), cp);

        // Lower bound 2: total work / total capacity.
        let total: Dur = exec.iter().copied().sum();
        let bound = total / cluster.total_slots() as u64;
        prop_assert!(m.makespan() >= bound, "makespan {} < work bound {}", m.makespan(), bound);
    }

    /// Parent always finishes before its child starts in the simulated
    /// execution (checked via per-task outcomes — we re-derive start order
    /// from a chain job where any violation would shorten the makespan).
    #[test]
    fn chains_execute_serially(
        n_tasks in 2usize..15,
        nodes in 1usize..5,
        seed in 0u64..100,
    ) {
        let jobs = vec![mk_job(0, n_tasks, 1 /* chain */, &[1000.0], seed)];
        let cluster = uniform(nodes, 1000.0, 2);
        let mut sched = DspListScheduler::default();
        let schedule = sched.schedule(&jobs, &cluster, Time::ZERO);
        let mut engine = Engine::new(jobs.clone(), cluster.clone(), EngineConfig::default());
        engine.add_batch(Time::ZERO, schedule);
        let m = engine.run(&mut NoPreempt);
        // A chain of k 1-second tasks can never beat k seconds, no matter
        // how many nodes exist.
        prop_assert_eq!(m.makespan(), Dur::from_secs(n_tasks as u64));
    }
}
