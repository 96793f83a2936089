//! The incremental [`PriorityEngine`] must stay **bit-for-bit** equal to
//! the retained naive reference `compute_priorities_ref` across arbitrary
//! epoch sequences: arrivals (world growth), completions, preemption-style
//! churn of the leaf inputs, and quiet epochs where nothing changes. The
//! engine evaluates Eq. 13 lazily — only for tasks no live child feeds —
//! so the edges of "no live child" get their own cases below.

use crate::priority::reference::{compute_priorities_ref, mean_neighbor_gap};
use crate::priority::{PriorityEngine, PriorityWeights};
use dsp_cluster::NodeId;
use dsp_dag::{generate::gen_dag, DagShape, Job, JobClass, JobId, TaskSpec};
use dsp_sim::{NodeView, TaskSnapshot, WorldCtx};
use dsp_units::{Dur, Mi, ResourceVec, Time};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mk_job(id: u32, n_tasks: usize, shape_sel: u8, seed: u64) -> Job {
    let shape = match shape_sel % 5 {
        0 => DagShape::Independent,
        1 => DagShape::Chain,
        2 => DagShape::FanOut,
        3 => DagShape::ForkJoin,
        _ => DagShape::Layered { depth: 3 },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = gen_dag(&mut rng, n_tasks, shape, 15);
    let tasks = vec![TaskSpec::sized(1000.0); n_tasks];
    Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::from_secs(100_000), tasks, dag)
}

fn snap(
    job: &Job,
    v: u32,
    rem_ms: u64,
    wait_ms: u64,
    allow_ms: u64,
    running: bool,
) -> TaskSnapshot {
    TaskSnapshot {
        id: job.task_id(v),
        remaining_work: Mi::new(rem_ms as f64),
        remaining_time: Dur::from_millis(rem_ms),
        waiting: Dur::from_millis(wait_ms),
        deadline: Time::MAX,
        allowable_wait: Dur::from_millis(allow_ms),
        running,
        ready: true,
        demand: ResourceVec::cpu_mem(0.1, 0.1),
        size: Mi::new(1000.0),
        preemptions: 0,
    }
}

/// One task's evolving leaf inputs across the epoch sequence.
#[derive(Clone, Copy)]
struct TaskSim {
    live: bool,
    rem: u64,
    wait: u64,
    allow: u64,
    running: bool,
}

/// Compare engine and reference on one epoch, bit-for-bit.
fn assert_epoch_equal(
    engine: &PriorityEngine,
    views: &[NodeView],
    world: &WorldCtx<'_>,
    w: &PriorityWeights,
) {
    let reference = compute_priorities_ref(views, world, w);
    assert_eq!(engine.len(), reference.len(), "live count diverged");
    for job in world.jobs {
        for v in 0..job.num_tasks() as u32 {
            let id = job.task_id(v);
            match (engine.get(&id), reference.get(&id)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "priority of {id} diverged: {a} vs {b}");
                }
                (a, b) => panic!("liveness of {id} diverged: engine={a:?} ref={b:?}"),
            }
        }
    }
    let ge = engine.mean_gap();
    let gr = mean_neighbor_gap(&reference);
    assert_eq!(ge.to_bits(), gr.to_bits(), "mean gap diverged: {ge} vs {gr}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random DAG workload, random epoch sequence with arrivals, completions,
    /// leaf-input churn and quiet epochs: the incremental engine answers
    /// exactly like the naive reference at every epoch.
    #[test]
    fn engine_matches_reference_bit_for_bit(
        n_jobs in 1usize..4,
        n_tasks in 1usize..9,
        shape in 0u8..5,
        epochs in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let jobs: Vec<Job> = (0..n_jobs as u32)
            .map(|i| mk_job(i * 3 + 1, n_tasks, shape.wrapping_add(i as u8), seed ^ i as u64))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let mut sims: Vec<Vec<TaskSim>> = jobs
            .iter()
            .map(|j| {
                (0..j.num_tasks())
                    .map(|_| TaskSim {
                        live: true,
                        rem: rng.gen_range(1..5_000),
                        wait: rng.gen_range(0..5_000),
                        allow: rng.gen_range(0..5_000),
                        running: rng.gen_range(0..2) == 0,
                    })
                    .collect()
            })
            .collect();

        let mut engine = PriorityEngine::new();
        for e in 0..epochs {
            // Jobs arrive one per epoch: the world grows append-only.
            let arrived = (e + 1).min(jobs.len());
            let world_jobs = &jobs[..arrived];
            let quiet = e > 0 && rng.gen_range(0..3) == 0;
            if !quiet {
                for (j, job_sims) in sims.iter_mut().enumerate().take(arrived) {
                    let _ = j;
                    for t in job_sims.iter_mut() {
                        match rng.gen_range(0..10) {
                            // Completion: the task leaves the views for good.
                            0 => t.live = false,
                            // Preemption/churn: leaf inputs move.
                            1..=6 => {
                                t.rem = rng.gen_range(1..5_000);
                                t.wait += rng.gen_range(0u64..500);
                                t.allow = rng.gen_range(0..5_000);
                                t.running = !t.running;
                            }
                            // Untouched: identical snapshot as last epoch.
                            _ => {}
                        }
                    }
                }
            }
            // Scatter live snapshots over two nodes, running/waiting split.
            let mut views = vec![
                NodeView { node: NodeId(0), running: vec![], waiting: vec![], slots: 2 },
                NodeView { node: NodeId(1), running: vec![], waiting: vec![], slots: 2 },
            ];
            for (j, job) in world_jobs.iter().enumerate() {
                for v in 0..job.num_tasks() as u32 {
                    let t = sims[j][v as usize];
                    if !t.live {
                        continue;
                    }
                    let s = snap(job, v, t.rem, t.wait, t.allow, t.running);
                    let view = &mut views[(j + v as usize) % 2];
                    if t.running {
                        view.running.push(s);
                    } else {
                        view.waiting.push(s);
                    }
                }
            }
            let world = WorldCtx { jobs: world_jobs, now: Time::from_secs(e as u64) };
            let w = PriorityWeights::default();
            engine.begin_epoch(&views, &world, &w);
            assert_epoch_equal(&engine, &views, &world, &w);
        }

        // Reuse the same engine against a different world (new job ids):
        // the arena reset path must also answer exactly.
        let other: Vec<Job> = (0..2u32).map(|i| mk_job(100 + i, 5, shape, seed ^ 77)).collect();
        let snaps: Vec<NodeView> = vec![NodeView {
            node: NodeId(0),
            running: vec![snap(&other[0], 0, 1_000, 10, 20, true)],
            waiting: vec![snap(&other[1], 0, 2_000, 30, 40, false)],
            slots: 2,
        }];
        let world = WorldCtx { jobs: &other, now: Time::ZERO };
        let w = PriorityWeights::default();
        engine.begin_epoch(&snaps, &world, &w);
        assert_epoch_equal(&engine, &snaps, &world, &w);
        prop_assert!(engine.stats().world_resets >= 1);
    }
}

/// One world, one weight set, a sequence of epochs over one engine: every
/// epoch must equal the reference.
fn assert_epochs_equal(jobs: &[Job], epochs: &[(u64, Vec<NodeView>)]) -> PriorityEngine {
    let w = PriorityWeights::default();
    let mut engine = PriorityEngine::new();
    for (now_s, views) in epochs {
        let world = WorldCtx { jobs, now: Time::from_secs(*now_s) };
        engine.begin_epoch(views, &world, &w);
        assert_epoch_equal(&engine, views, &world, &w);
    }
    engine
}

fn one_view(running: Vec<TaskSnapshot>, waiting: Vec<TaskSnapshot>) -> NodeView {
    NodeView { node: NodeId(0), running, waiting, slots: 2 }
}

#[test]
fn live_non_sink_with_all_children_absent_takes_eq13() {
    // Chain 0 → 1 → 2 with only the root in the views (children finished,
    // or not yet injected): it has children in the DAG but none live, so
    // its priority is its own Eq. 13 value, not an empty Eq. 12 sum.
    let job = mk_job(0, 3, 1, 7);
    let root = snap(&job, 0, 2_000, 4_000, 10_000, true);
    let engine =
        assert_epochs_equal(std::slice::from_ref(&job), &[(1, vec![one_view(vec![root], vec![])])]);
    let want = crate::priority::leaf_priority(&root, &PriorityWeights::default());
    assert_eq!(engine.get(&job.task_id(0)).map(f64::to_bits), Some(want.to_bits()));
    assert_eq!(engine.len(), 1);
    // The middle task alone: its parent and child are both absent.
    let mid = snap(&job, 1, 500, 0, 0, false);
    assert_epochs_equal(&[job], &[(1, vec![one_view(vec![], vec![mid])])]);
}

#[test]
fn duplicate_snapshots_keep_the_last_one() {
    // The same task listed in two views with different leaf inputs: the
    // reference's slot overwrite keeps the last, and so must the recorded
    // snapshot location — across views and within one view's
    // running ++ waiting chain.
    let job = mk_job(4, 2, 0, 1);
    let early = snap(&job, 0, 1_000, 10, 20, true);
    let late = snap(&job, 0, 4_000, 900, 5, false);
    let other = snap(&job, 1, 700, 1, 2, false);
    let across = vec![one_view(vec![early], vec![other]), one_view(vec![], vec![late])];
    let within = vec![one_view(vec![early], vec![other, late])];
    let engine = assert_epochs_equal(std::slice::from_ref(&job), &[(1, across), (2, within)]);
    let want = crate::priority::leaf_priority(&late, &PriorityWeights::default());
    assert_eq!(engine.get(&job.task_id(0)).map(f64::to_bits), Some(want.to_bits()));
    assert_eq!(engine.len(), 2);
}

#[test]
fn zero_length_epochs_stay_exact() {
    // Two epochs at the same instant over identical views (a service tick
    // that lands on an epoch boundary twice), then the same instant with a
    // sink gone: no state carried between epochs may leak into the answer.
    let job = mk_job(2, 6, 3, 11);
    let all: Vec<TaskSnapshot> =
        (0..6u32).map(|v| snap(&job, v, 1_000 + v as u64, 50, 3_000, v % 2 == 0)).collect();
    let split = |snaps: &[TaskSnapshot]| {
        let (running, waiting): (Vec<_>, Vec<_>) = snaps.iter().partition(|s| s.running);
        vec![one_view(running, waiting)]
    };
    let sink = *job.dag.topo_order().last().expect("six tasks");
    let fewer: Vec<TaskSnapshot> =
        all.iter().copied().filter(|s| s.id != job.task_id(sink)).collect();
    assert_epochs_equal(&[job], &[(5, split(&all)), (5, split(&all)), (5, split(&fewer))]);
}
