//! Property tests for the engine: conservation, dependency safety and
//! determinism must hold under *adversarial random preemption policies*,
//! not just the well-behaved ones — and the policy views the engine
//! maintains event by event must equal a from-scratch rebuild throughout.

use dsp_cluster::{uniform, NodeId};
use dsp_dag::{generate::gen_dag, DagShape, Job, JobClass, JobId, TaskSpec};
use dsp_sim::{
    Engine, EngineConfig, FaultPlan, NodeView, PreemptAction, PreemptPolicy, Schedule, WorldCtx,
};
use dsp_units::{Dur, Time};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A chaotic policy: preempts pseudo-randomly, sometimes dependency-
/// violating, sometimes self-inconsistent. The engine must stay sound.
struct ChaosPolicy {
    rng: StdRng,
    checkpoint: bool,
    /// Epochs consulted so far.
    epochs: u64,
}

impl ChaosPolicy {
    fn new(seed: u64, checkpoint: bool) -> Self {
        ChaosPolicy { rng: StdRng::seed_from_u64(seed), checkpoint, epochs: 0 }
    }
}

impl PreemptPolicy for ChaosPolicy {
    fn name(&self) -> &str {
        "chaos"
    }
    fn begin_epoch(&mut self, _now: Time, _views: &[NodeView], _world: &WorldCtx<'_>) {
        self.epochs += 1;
    }
    fn decide(&mut self, _now: Time, view: &NodeView, _world: &WorldCtx<'_>) -> Vec<PreemptAction> {
        let mut actions = Vec::new();
        for r in &view.running {
            if view.waiting.is_empty() {
                break;
            }
            if self.rng.gen_bool(0.4) {
                let w = &view.waiting[self.rng.gen_range(0..view.waiting.len())];
                actions.push(PreemptAction { evict: r.id, admit: w.id });
            }
        }
        actions
    }
    fn checkpointing(&self) -> bool {
        self.checkpoint
    }
}

fn mk_jobs(n_jobs: usize, tasks_each: usize, shape_sel: u8, seed: u64) -> Vec<Job> {
    let shape = match shape_sel % 4 {
        0 => DagShape::Independent,
        1 => DagShape::Chain,
        2 => DagShape::ForkJoin,
        _ => DagShape::Layered { depth: 4 },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_jobs)
        .map(|i| {
            let dag = gen_dag(&mut rng, tasks_each, shape, 15);
            Job::new(
                JobId(i as u32),
                JobClass::Small,
                Time::ZERO,
                Time::from_secs(100_000),
                (0..tasks_each).map(|_| TaskSpec::sized(rng.gen_range(500.0..5_000.0))).collect(),
                dag,
            )
        })
        .collect()
}

fn round_robin_schedule(jobs: &[Job], nodes: usize) -> Schedule {
    let mut s = Schedule::new();
    let mut i = 0u64;
    for job in jobs {
        for v in 0..job.num_tasks() as u32 {
            s.assign(job.task_id(v), NodeId((i % nodes as u64) as u32), Time::from_micros(i));
            i += 1;
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Chaos preemption with checkpointing: everything still completes,
    /// work is conserved, and runs are bit-deterministic.
    #[test]
    fn chaos_policy_cannot_break_the_engine(
        n_jobs in 1usize..4,
        tasks_each in 1usize..12,
        shape in 0u8..4,
        nodes in 1usize..4,
        seed in 0u64..300,
    ) {
        let jobs = mk_jobs(n_jobs, tasks_each, shape, seed);
        let cluster = uniform(nodes, 1000.0, 2);
        let schedule = round_robin_schedule(&jobs, nodes);
        let run = || {
            let mut e = Engine::new(
                jobs.clone(),
                cluster.clone(),
                EngineConfig { epoch: Dur::from_secs(5), ..EngineConfig::default() },
            );
            e.add_batch(Time::ZERO, schedule.clone());
            e.run(&mut ChaosPolicy::new(seed ^ 0xC0FFEE, true))
        };
        let m = run();
        prop_assert_eq!(m.tasks_completed as usize, n_jobs * tasks_each);
        prop_assert_eq!(m.jobs_completed(), n_jobs);
        // Overhead strictly tracks the preemption count.
        prop_assert_eq!(m.switch_overhead, Dur::from_millis(1050) * m.preemptions);
        // Determinism under identical seeds.
        prop_assert_eq!(m, run());
    }

    /// Faults + chaos: random crashes and stragglers still drain the
    /// system as long as one node survives.
    #[test]
    fn chaos_plus_faults_still_drain(
        tasks_each in 1usize..10,
        shape in 0u8..4,
        seed in 0u64..300,
        crash_at in 1u64..30,
        slow_at in 1u64..30,
    ) {
        let jobs = mk_jobs(2, tasks_each, shape, seed);
        let cluster = uniform(3, 1000.0, 2);
        let schedule = round_robin_schedule(&jobs, 3);
        let faults = FaultPlan::none()
            .kill(NodeId(0), Time::from_secs(crash_at))
            .straggle(NodeId(1), Time::from_secs(slow_at), 0.5)
            .crash(NodeId(2), Time::from_secs(crash_at + 2), Time::from_secs(crash_at + 10));
        let mut e = Engine::new(
            jobs.clone(),
            cluster.clone(),
            EngineConfig { epoch: Dur::from_secs(5), ..EngineConfig::default() },
        );
        e.add_batch(Time::ZERO, schedule);
        e.add_faults(faults);
        let m = e.run(&mut ChaosPolicy::new(seed, true));
        prop_assert_eq!(m.tasks_completed as usize, 2 * tasks_each);
        prop_assert_eq!(m.jobs_completed(), 2);
    }

    /// Differential: the event-maintained policy views against a rebuild.
    /// Chaos preemption (checkpointing on and off) × a permanent kill, a
    /// transient crash, stragglers that slow down (one while crashed) and
    /// recover — staged and injected mid-stream — × jobs and batches fed
    /// between `step_until` calls, some onto the dead node. Debug builds
    /// compare at every epoch inside the engine; the explicit calls here
    /// add the instants between steps, where no epoch falls.
    #[test]
    fn maintained_views_equal_a_rebuild(
        tasks_each in 1usize..10,
        shape in 0u8..4,
        seed in 0u64..300,
        checkpoint in 0u8..2,
        crash_at in 1u64..30,
        slow_at in 1u64..30,
        step_ms in 500u64..9_000,
    ) {
        const WAVES: usize = 3;
        let jobs = mk_jobs(WAVES, tasks_each, shape, seed);
        let wave = |k: usize| round_robin_schedule(&jobs[k..=k], 3);
        let mut e = Engine::new(
            jobs[..1].to_vec(),
            uniform(3, 1000.0, 2),
            EngineConfig { epoch: Dur::from_secs(2), ..EngineConfig::default() },
        );
        e.add_batch(Time::ZERO, wave(0));
        e.add_faults(
            FaultPlan::none()
                .kill(NodeId(0), Time::from_secs(crash_at))
                .straggle(NodeId(1), Time::from_secs(slow_at), 0.5),
        );
        let mut policy = ChaosPolicy::new(seed, checkpoint == 1);
        let mut now = Time::ZERO;
        for k in 1..WAVES {
            now += Dur::from_millis(step_ms);
            e.step_until(&mut policy, now);
            #[cfg(debug_assertions)]
            e.assert_views_current();
            e.add_jobs(jobs[k..=k].to_vec());
            e.add_batch(now, wave(k));
            if k == 1 {
                e.add_faults(
                    FaultPlan::none()
                        .crash(NodeId(2), Time::from_secs(crash_at + 2), Time::from_secs(crash_at + 10))
                        .straggle(NodeId(1), Time::from_secs(slow_at + 7), 1.0)
                        // A rate change while the node is down and its
                        // queue is parked.
                        .straggle(NodeId(2), Time::from_secs(crash_at + 5), 0.7),
                );
            }
        }
        // Step through the tail too, so the between-epoch check keeps
        // running while faults fire and queues drain.
        while !e.idle() && now < Time::from_secs(3_600) {
            now += Dur::from_millis(step_ms);
            e.step_until(&mut policy, now);
            #[cfg(debug_assertions)]
            e.assert_views_current();
        }
        let m = e.run(&mut policy);
        prop_assert_eq!(m.tasks_completed as usize, WAVES * tasks_each);
        prop_assert_eq!(m.jobs_completed(), WAVES);
        prop_assert!(policy.epochs > 0, "the policy was never consulted");
    }

    /// Batches land on queues that still hold earlier batches' tasks, with
    /// planned starts equal to each other and to the queued ones', listed
    /// against queue order: an injection merges them into each queue
    /// (debug builds check the queue is in `(planned_start, g)` order
    /// before every merge and at every epoch) and the maintained views
    /// stay equal to a rebuild.
    #[test]
    fn batches_merge_into_busy_queues_with_equal_planned_starts(
        tasks_each in 2usize..10,
        shape in 0u8..4,
        seed in 0u64..300,
        distinct_starts in 1u64..4,
        nodes in 1usize..4,
        step_ms in 50u64..400,
    ) {
        const WAVES: usize = 4;
        let jobs = mk_jobs(WAVES, tasks_each, shape, seed);
        // Planned starts from a few values shared by every wave; the
        // assignments are listed in reverse of the order the queue keeps.
        let wave = |k: usize| {
            let mut s = Schedule::new();
            let job = &jobs[k];
            for v in (0..job.num_tasks() as u32).rev() {
                let start = Time::from_secs(u64::from(v) % distinct_starts);
                s.assign(job.task_id(v), NodeId(v % nodes as u32), start);
            }
            s
        };
        let mut e = Engine::new(
            jobs[..1].to_vec(),
            uniform(nodes, 1000.0, 1),
            EngineConfig { epoch: Dur::from_secs(1), ..EngineConfig::default() },
        );
        e.add_batch(Time::ZERO, wave(0));
        let mut policy = ChaosPolicy::new(seed, true);
        let mut now = Time::ZERO;
        let mut onto_busy = 0;
        for k in 1..WAVES {
            now += Dur::from_millis(step_ms);
            e.step_until(&mut policy, now);
            #[cfg(debug_assertions)]
            e.assert_views_current();
            let queued: usize = jobs[..k]
                .iter()
                .filter_map(|j| e.job_progress(j.id))
                .map(|p| p.waiting)
                .sum();
            onto_busy += usize::from(queued > 0);
            e.add_jobs(jobs[k..=k].to_vec());
            e.add_batch(now, wave(k));
        }
        let m = e.run(&mut policy);
        prop_assert_eq!(m.tasks_completed as usize, WAVES * tasks_each);
        prop_assert_eq!(m.jobs_completed(), WAVES);
        prop_assert!(onto_busy > 0, "no batch met a busy queue");
    }
}
