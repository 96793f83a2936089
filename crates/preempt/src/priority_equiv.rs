//! The incremental [`PriorityEngine`] must stay **bit-for-bit** equal to
//! the retained naive reference `compute_priorities_ref` across arbitrary
//! epoch sequences: arrivals (world growth), completions, tasks that drop
//! out of the views and come back, preemption-style churn of the leaf
//! inputs, and quiet epochs where the snapshots stay put while the clock
//! moves under them. Snapshots are clock-free, so both sides derive `t^w`
//! and `t^a` at the epoch instant; the engine runs Eq. 12 over a per-job
//! live list it rebuilds or compacts, so the edges of that list get their
//! own cases below.

use crate::priority::reference::{compute_priorities_ref, leaf_priority, mean_neighbor_gap, GAMMA};
use crate::priority::PriorityEngine;
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

/// One task's evolving snapshot inputs across the epoch sequence, in ms.
#[derive(Clone, Copy)]
struct TaskSim {
    /// Epoch from which the task shows up in the views.
    arrives: usize,
    done: bool,
    rem: u64,
    /// Closed waiting stints.
    waited: u64,
    /// Start of the open stint; `None` while running.
    since: Option<u64>,
    deadline: u64,
}

impl TaskSim {
    fn snapshot(&self, job: &Job, v: u32) -> TaskSnapshot {
        snap(job, v, self.rem, self.waited, self.since, self.deadline)
    }
}

/// A clock-free snapshot from ms inputs: open stint since `since`, or
/// running when that is `None`.
fn snap(
    job: &Job,
    v: u32,
    rem_ms: u64,
    waited_ms: u64,
    since_ms: Option<u64>,
    deadline_ms: u64,
) -> TaskSnapshot {
    TaskSnapshot {
        id: job.task_id(v),
        remaining_work: Mi::new(rem_ms as f64),
        remaining_time: Dur::from_millis(rem_ms),
        waited: Dur::from_millis(waited_ms),
        wait_since: since_ms.map(Time::from_millis),
        deadline: Time::from_millis(deadline_ms),
        running: since_ms.is_none(),
        ready: true,
        demand: ResourceVec::cpu_mem(0.1, 0.1),
        size: Mi::new(1000.0),
        preemptions: 0,
    }
}

fn running(job: &Job, v: u32, rem_ms: u64, waited_ms: u64, deadline_ms: u64) -> TaskSnapshot {
    snap(job, v, rem_ms, waited_ms, None, deadline_ms)
}

fn waiting(job: &Job, v: u32, rem: u64, waited: u64, since: u64, deadline: u64) -> TaskSnapshot {
    snap(job, v, rem, waited, Some(since), deadline)
}

/// Compare engine and reference on one epoch, bit-for-bit.
fn assert_epoch_equal(
    engine: &PriorityEngine,
    now: Time,
    views: &[NodeView],
    world: &WorldCtx<'_>,
    gamma: f64,
) {
    let reference = compute_priorities_ref(now, views, world, gamma);
    assert_eq!(engine.len(), reference.len(), "live count diverged at {now}");
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

    /// Random DAG workload, random epoch sequence with arrivals,
    /// completions, tasks hidden for one epoch, leaf-input churn and quiet
    /// epochs: the incremental engine answers exactly like the naive
    /// reference at every epoch.
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
                        arrives: if rng.gen_range(0..3) == 0 { rng.gen_range(0..epochs) } else { 0 },
                        done: false,
                        rem: rng.gen_range(1..5_000),
                        waited: rng.gen_range(0..5_000),
                        since: (rng.gen_range(0..2) == 0).then_some(0),
                        deadline: rng.gen_range(0..20_000),
                    })
                    .collect()
            })
            .collect();

        let mut engine = PriorityEngine::new();
        for e in 0..epochs {
            let now_ms = e as u64 * 1_000;
            // Jobs arrive one per epoch: the world grows append-only.
            let arrived = (e + 1).min(jobs.len());
            let world_jobs = &jobs[..arrived];
            let quiet = e > 0 && rng.gen_range(0..3) == 0;
            let mut hidden = vec![vec![false; n_tasks]; arrived];
            if !quiet {
                for (job_sims, job_hidden) in sims.iter_mut().zip(&mut hidden) {
                    for (t, h) in job_sims.iter_mut().zip(job_hidden.iter_mut()) {
                        match rng.gen_range(0..12) {
                            // Completion: the task leaves the views for good.
                            0 => t.done = true,
                            // Absent this epoch only, back in the next one.
                            1 => *h = true,
                            // Preemption or dispatch: the stint flips, and
                            // the believed remaining time and deadline move.
                            2..=7 => {
                                match t.since {
                                    Some(s) => {
                                        t.waited += now_ms.saturating_sub(s);
                                        t.since = None;
                                    }
                                    None => t.since = Some(now_ms),
                                }
                                t.rem = rng.gen_range(1..5_000);
                                t.deadline = now_ms + rng.gen_range(0..10_000);
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
                    if t.done || t.arrives > e || hidden[j][v as usize] {
                        continue;
                    }
                    let s = t.snapshot(job, v);
                    let view = &mut views[(j + v as usize) % 2];
                    if s.running {
                        view.running.push(s);
                    } else {
                        view.waiting.push(s);
                    }
                }
            }
            let now = Time::from_millis(now_ms);
            let world = WorldCtx { jobs: world_jobs, now, epoch: Dur::from_secs(5) };
            engine.begin_epoch(now, &views, &world, GAMMA);
            assert_epoch_equal(&engine, now, &views, &world, GAMMA);
        }

        // Reuse the same engine against a different world (new job ids):
        // the arena reset path must also answer exactly.
        let other: Vec<Job> = (0..2u32).map(|i| mk_job(100 + i, 5, shape, seed ^ 77)).collect();
        let snaps: Vec<NodeView> = vec![NodeView {
            node: NodeId(0),
            running: vec![running(&other[0], 0, 1_000, 10, 3_000)],
            waiting: vec![waiting(&other[1], 0, 2_000, 30, 0, 4_000)],
            slots: 2,
        }];
        let world = WorldCtx { jobs: &other, now: Time::ZERO, epoch: Dur::from_secs(5) };
        engine.begin_epoch(Time::ZERO, &snaps, &world, GAMMA);
        assert_epoch_equal(&engine, Time::ZERO, &snaps, &world, GAMMA);
        prop_assert!(engine.stats().world_resets >= 1);
    }
}

/// One world, a sequence of epochs over one engine: every epoch must equal
/// the reference.
fn assert_epochs_equal(jobs: &[Job], epochs: &[(u64, Vec<NodeView>)]) -> PriorityEngine {
    let mut engine = PriorityEngine::new();
    for (now_s, views) in epochs {
        let now = Time::from_secs(*now_s);
        let world = WorldCtx { jobs, now, epoch: Dur::from_secs(5) };
        engine.begin_epoch(now, views, &world, GAMMA);
        assert_epoch_equal(&engine, now, views, &world, GAMMA);
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
    let root = running(&job, 0, 2_000, 4_000, 12_000);
    let engine =
        assert_epochs_equal(std::slice::from_ref(&job), &[(1, vec![one_view(vec![root], vec![])])]);
    let want = leaf_priority(&root, Time::from_secs(1));
    assert_eq!(engine.get(&job.task_id(0)).map(f64::to_bits), Some(want.to_bits()));
    assert_eq!(engine.len(), 1);
    // The middle task alone: its parent and child are both absent.
    let mid = waiting(&job, 1, 500, 0, 1_000, 1_500);
    assert_epochs_equal(&[job], &[(1, vec![one_view(vec![], vec![mid])])]);
}

#[test]
fn duplicate_snapshots_keep_the_last_one() {
    // The same task listed in two views with different leaf inputs: the
    // reference's slot overwrite keeps the last, and so must the engine's
    // scan — across views and within one view's running ++ waiting chain.
    let job = mk_job(4, 2, 0, 1);
    let early = running(&job, 0, 1_000, 10, 1_020);
    let late = waiting(&job, 0, 4_000, 900, 0, 4_005);
    let other = waiting(&job, 1, 700, 1, 500, 703);
    let across = vec![one_view(vec![early], vec![other]), one_view(vec![], vec![late])];
    let within = vec![one_view(vec![early], vec![other, late])];
    let engine = assert_epochs_equal(std::slice::from_ref(&job), &[(1, across), (2, within)]);
    let want = leaf_priority(&late, Time::from_secs(2));
    assert_eq!(engine.get(&job.task_id(0)).map(f64::to_bits), Some(want.to_bits()));
    assert_eq!(engine.len(), 2);
}

#[test]
fn zero_length_epochs_stay_exact() {
    // Two epochs at the same instant over identical views (a service tick
    // that lands on an epoch boundary twice), then the same instant with a
    // sink gone: no state carried between epochs may leak into the answer.
    let job = mk_job(2, 6, 3, 11);
    let all: Vec<TaskSnapshot> = (0..6u32)
        .map(|v| {
            let rem = 1_000 + v as u64;
            if v % 2 == 0 {
                running(&job, v, rem, 50, rem + 8_000)
            } else {
                waiting(&job, v, rem, 0, 4_950, rem + 8_000)
            }
        })
        .collect();
    let split = |snaps: &[TaskSnapshot]| {
        let (running, waiting): (Vec<_>, Vec<_>) = snaps.iter().partition(|s| s.running);
        vec![one_view(running, waiting)]
    };
    let sink = *job.dag.topo_order().last().expect("six tasks");
    let fewer: Vec<TaskSnapshot> =
        all.iter().copied().filter(|s| s.id != job.task_id(sink)).collect();
    assert_epochs_equal(&[job], &[(5, split(&all)), (5, split(&all)), (5, split(&fewer))]);
}

#[test]
fn the_clock_moves_priorities_over_unchanged_snapshots() {
    // The same snapshots, epoch after epoch, while `now` advances: a waiting
    // leaf's `t^w` grows and its `t^a` shrinks to zero exactly on the 5 s
    // epoch instant, then stays saturated; a running leaf's `t^w` is frozen
    // at its closed stints while its `t^a` keeps shrinking. A second job, a
    // chain, carries the same movements up through Eq. 12.
    let solo = mk_job(0, 2, 0, 3); // two independent tasks
    let chain = mk_job(1, 3, 1, 5); // 0 → 1 → 2
    let jobs = vec![solo.clone(), chain.clone()];
    // Waiting since 0 s after 1 s of earlier stints; t^rem 2 s, t^d 7 s.
    let waiter = waiting(&solo, 0, 2_000, 1_000, 0, 7_000);
    // Running after 3 s of waiting; t^rem 4 s, t^d 100 s.
    let runner = running(&solo, 1, 4_000, 3_000, 100_000);
    let chain_snaps = [
        waiting(&chain, 0, 1_000, 0, 2_000, 9_000),
        waiting(&chain, 1, 3_000, 0, 2_000, 6_000),
        running(&chain, 2, 500, 700, 20_000),
    ];
    let views = vec![
        one_view(vec![runner, chain_snaps[2]], vec![waiter]),
        one_view(vec![], chain_snaps[..2].to_vec()),
    ];
    let instants = [3u64, 4, 5, 5, 6, 8];
    let mut engine = PriorityEngine::new();
    for now_s in instants {
        let now = Time::from_secs(now_s);
        let world = WorldCtx { jobs: &jobs, now, epoch: Dur::from_secs(5) };
        engine.begin_epoch(now, &views, &world, GAMMA);
        assert_epoch_equal(&engine, now, &views, &world, GAMMA);

        let t_a = 5u64.saturating_sub(now_s) as f64;
        assert_eq!(waiter.allowable_wait(now), Dur::from_secs(5u64.saturating_sub(now_s)));
        assert_eq!(waiter.waiting(now), Dur::from_secs(1 + now_s));
        let want_waiter = 0.5 / 2.0 + 0.3 * (1 + now_s) as f64 + 0.2 * t_a;
        let got_waiter = engine.get(&solo.task_id(0)).expect("live");
        assert!((got_waiter - want_waiter).abs() < 1e-9, "{got_waiter} vs {want_waiter}");

        assert_eq!(runner.waiting(now), Dur::from_secs(3), "a running task's t^w is frozen");
        let want_runner = 0.5 / 4.0 + 0.3 * 3.0 + 0.2 * (96 - now_s) as f64;
        let got_runner = engine.get(&solo.task_id(1)).expect("live");
        assert!((got_runner - want_runner).abs() < 1e-9, "{got_runner} vs {want_runner}");
    }
    assert_eq!(engine.stats().epochs, instants.len() as u64);
}

#[test]
fn a_task_that_returns_rebuilds_the_live_list() {
    // Epoch 1 holds a whole fork-join; epoch 2 drops two tasks (the list
    // compacts); epoch 3 brings one back (the list rebuilds) and epoch 4
    // injects nothing new while the clock moves on.
    let job = mk_job(6, 6, 3, 17);
    let all: Vec<TaskSnapshot> =
        (0..6u32).map(|v| waiting(&job, v, 1_000 + 100 * v as u64, 0, 0, 9_000)).collect();
    let topo = job.dag.topo_order();
    let (a, b) = (topo[2], topo[3]);
    let without = |gone: &[u32]| {
        let kept: Vec<TaskSnapshot> =
            all.iter().copied().filter(|s| !gone.iter().any(|&g| s.id == job.task_id(g))).collect();
        vec![one_view(vec![], kept)]
    };
    let engine = assert_epochs_equal(
        std::slice::from_ref(&job),
        &[(1, without(&[])), (2, without(&[a, b])), (3, without(&[b])), (4, without(&[b]))],
    );
    assert_eq!(engine.len(), 5);
}

#[test]
fn memoised_inverse_remaining_follows_t_rem() {
    // A running task's `t_rem` falls every epoch, and once comes back to an
    // earlier value (a slowed node's re-estimate); beside it a waiting task
    // keeps one `t_rem` throughout (its memo hits), then gets a new one
    // (its node's rate changed) and the old one back. A chain carries both
    // through Eq. 12.
    let solo = mk_job(0, 2, 0, 3); // two independent tasks
    let chain = mk_job(1, 2, 1, 5); // 0 → 1
    let jobs = vec![solo.clone(), chain.clone()];
    let runner_rem = [9_000u64, 8_000, 7_000, 8_000, 1, 0, 5_000];
    let waiter_rem = [3_000u64, 3_000, 3_000, 4_500, 3_000, 3_000, 3_000];
    let mut engine = PriorityEngine::new();
    for (e, (&r, &q)) in runner_rem.iter().zip(&waiter_rem).enumerate() {
        let now = Time::from_secs(e as u64 + 1);
        let views = vec![
            one_view(
                vec![running(&solo, 0, r, 200, 60_000)],
                vec![waiting(&solo, 1, q, 0, 0, 40_000)],
            ),
            one_view(
                vec![running(&chain, 1, q, 0, 50_000)],
                vec![waiting(&chain, 0, r, 0, 0, 9_000)],
            ),
        ];
        let world = WorldCtx { jobs: &jobs, now, epoch: Dur::from_secs(5) };
        engine.begin_epoch(now, &views, &world, GAMMA);
        assert_epoch_equal(&engine, now, &views, &world, GAMMA);
    }
}

#[test]
fn weights_may_change_between_epochs_of_one_engine() {
    // An engine whose γ changes from one epoch to the next (and back)
    // still answers as the reference does under each epoch's γ, for the
    // waiting tasks whose memo and priorities were filled under another γ
    // and for the running one whose `t_rem` moves.
    let job = mk_job(3, 6, 3, 19);
    let mut engine = PriorityEngine::new();
    for (e, gamma) in [0.9, GAMMA, GAMMA, 0.9].into_iter().enumerate() {
        let now = Time::from_secs(2 + e as u64);
        let runner = running(&job, 0, 9_000 - 1_000 * e as u64, 100, 40_000);
        let waiters: Vec<TaskSnapshot> = (1..6u32)
            .map(|v| {
                let rem = 700 + 300 * v as u64;
                waiting(&job, v, rem, 50, 0, rem + 15_000)
            })
            .collect();
        let views = vec![one_view(vec![runner], waiters)];
        let jobs = std::slice::from_ref(&job);
        let world = WorldCtx { jobs, now, epoch: Dur::from_secs(5) };
        engine.begin_epoch(now, &views, &world, gamma);
        assert_epoch_equal(&engine, now, &views, &world, gamma);
    }
}
