//! DSP's task preemption procedure — Algorithm 1 of the paper.
//!
//! Per epoch and per node:
//!
//! 1. **Urgent pass**: every waiting task whose allowable waiting time has
//!    collapsed (`t^a ≤ ε`) *or* that has waited beyond the τ threshold
//!    preempts the lowest-priority preemptable running task it does not
//!    depend on — unconditionally (no C1, no PP): deadlines outrank
//!    throughput.
//! 2. **Preempting-task pass**: only the first `δ` fraction of the waiting
//!    queue is considered (the offline schedule is near-optimal, so
//!    adjusting its head is enough — and cheap). A waiting task preempts
//!    the lowest-priority preemptable running task if
//!    * **C1** its priority is strictly higher, and
//!    * **C2** it does not depend on that running task, and
//!    * **PP** (when enabled) the priority gap, normalized by the global
//!      mean neighbour gap `P̄`, exceeds ρ — so the throughput gain
//!      demonstrably exceeds the context-switch cost. (The paper's text
//!      writes the condition as `P̃ > ρ·P̂/P̄` which is degenerate as
//!      printed; the surrounding prose — "the priority difference … must be
//!      larger than the global average difference" — pins the intent to
//!      `P̂/P̄ > ρ`, which is what we implement.)
//!
//! Running tasks are *preemptable* only when their own allowable waiting
//! time exceeds one epoch (the engine's, [`WorldCtx::epoch`]), so evicting
//! them cannot push them past their deadlines.

use crate::priority::{PriorityEngine, PriorityEngineStats};
use dsp_sim::{NodeView, PreemptAction, PreemptPolicy, TaskSnapshot, WorldCtx};
use dsp_units::{Dur, Time};

/// τ: the waiting time past which a ready task is urgent whatever its
/// priority. Table II prints 0.05 s, but queue waits in any loaded cluster
/// exceed that within one epoch, which would turn the starvation escape
/// hatch into preempt-everything-always; an hour makes the override fire
/// only for genuinely starved tasks (recorded as a deliberate deviation in
/// EXPERIMENTS.md).
pub const TAU: Dur = Dur::from_secs(3600);

/// ε: the allowable waiting time at or below which a still-savable ready
/// task is urgent.
pub const EPSILON: Dur = Dur::from_millis(100);

/// The tunables of Algorithm 1 that the paper's experiments vary,
/// defaulted to Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DspParams {
    /// δ: fraction of the waiting queue considered as preempting tasks.
    pub delta: f64,
    /// ρ > 1: the PP filter's normalized-gap requirement.
    pub rho: f64,
    /// γ ∈ (0,1): Eq. 12's level coefficient, which boosts tasks whose
    /// dependents sit in shallower levels.
    pub gamma: f64,
    /// Enable the normalized-priority filter (false = DSPW/oPP).
    pub use_pp: bool,
}

/// Algorithm 1 line 4: is a waiting task with readiness `ready`, allowable
/// waiting time `allowable` (`t^a`) and accumulated waiting time `waited`
/// (`t^w`) urgent under [`EPSILON`] and [`TAU`]?
///
/// Urgency must be real: a task whose precedents are still unfinished
/// cannot execute, so preempting for it would be pure waste — this
/// readiness check is part of what keeps DSP's disorder count at zero
/// (Fig. 6a). Urgent = still savable but about to be lost: `t^a` saturates
/// at zero the moment a task can no longer meet its deadline even if
/// dispatched immediately, and lost causes must NOT count as urgent —
/// treating them so would preempt-storm the node every epoch for the rest
/// of the run. The starvation override (τ) stays unconditional.
///
/// Written with `&` and `|`: the epoch scan asks this of every waiting
/// entry, and `ready` alone is a coin toss no branch predictor wins.
#[inline]
pub(crate) fn is_urgent(ready: bool, allowable: Dur, waited: Dur) -> bool {
    ready & ((allowable > Dur::ZERO) & (allowable <= EPSILON) | (waited >= TAU))
}

impl Default for DspParams {
    fn default() -> Self {
        DspParams { delta: 0.35, rho: 1.5, gamma: 0.5, use_pp: true }
    }
}

/// The DSP preemption policy.
#[derive(Debug, Clone)]
pub struct DspPolicy {
    /// Parameters.
    pub params: DspParams,
    engine: PriorityEngine,
    p_bar: f64,
    name: &'static str,
    // Per-`decide` scratch, reused across epochs so the hot path allocates
    // nothing in steady state.
    cand: Vec<(f64, usize)>,
    admitted: Vec<bool>,
}

impl DspPolicy {
    /// Algorithm 1 at `params`: full DSP, or the DSPW/oPP ablation (no
    /// normalized-priority filter) when `use_pp` is off.
    pub fn new(params: DspParams) -> Self {
        let name = if params.use_pp { "DSP" } else { "DSPW/oPP" };
        DspPolicy {
            params,
            engine: PriorityEngine::new(),
            p_bar: 0.0,
            name,
            cand: Vec::new(),
            admitted: Vec::new(),
        }
    }

    /// Work counters of the incremental priority engine (perf harness
    /// instrumentation).
    pub fn priority_stats(&self) -> PriorityEngineStats {
        self.engine.stats()
    }

    /// The priority `begin_epoch` computed for a task of a view it scanned.
    fn priority(&self, s: &TaskSnapshot) -> f64 {
        self.engine.get(&s.id).expect("decide sees only tasks begin_epoch scanned")
    }

    /// PP filter: does the gap justify the context switch?
    fn pp_allows(&self, gap: f64) -> bool {
        if !self.params.use_pp {
            return gap > 0.0;
        }
        if self.p_bar <= 0.0 {
            // No global scale (fewer than two live tasks): fall back to the
            // plain C1 comparison.
            return gap > 0.0;
        }
        gap / self.p_bar > self.params.rho
    }

    /// The per-`decide` scratch, reused across epochs so the hot path
    /// allocates nothing in steady state.
    fn take_scratch(&mut self) -> (Vec<(f64, usize)>, Vec<bool>) {
        (std::mem::take(&mut self.cand), std::mem::take(&mut self.admitted))
    }

    /// Algorithm 1 on one node, with pass 1 over `urgent`: the view's
    /// urgent waiting entries, as ascending positions in `view.waiting`.
    fn algorithm1(
        &self,
        now: Time,
        view: &NodeView,
        world: &WorldCtx<'_>,
        urgent: impl Iterator<Item = usize>,
        preemptable: &mut Vec<(f64, usize)>,
        admitted: &mut Vec<bool>,
    ) -> Vec<PreemptAction> {
        let mut actions = Vec::new();
        // Preemptable running tasks, ascending priority (Algorithm 1 line
        // 2), with deadline protection. Each candidate's priority is
        // computed once instead of per sort comparison.
        preemptable.clear();
        preemptable.extend(
            view.running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.allowable_wait(now) > world.epoch)
                .map(|(i, r)| (self.priority(r), i)),
        );
        // Total order with an index tie-break: equal priorities must not
        // let the input permutation pick the victim (determinism contract).
        preemptable.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        admitted.clear();
        admitted.resize(view.waiting.len(), false);

        // --- Pass 1: urgent tasks and τ-overdue tasks (lines 3–11). ---
        for i in urgent {
            if preemptable.is_empty() {
                break;
            }
            let w = &view.waiting[i];
            if let Some(pos) =
                preemptable.iter().position(|&(_, r)| !world.depends_on(w.id, view.running[r].id))
            {
                let (_, victim) = preemptable.remove(pos);
                actions.push(PreemptAction { evict: view.running[victim].id, admit: w.id });
                admitted[i] = true;
            }
        }

        // --- Pass 2: the δ-window preempting tasks (lines 12–19). ---
        let window = ((self.params.delta * view.waiting.len() as f64).ceil() as usize)
            .min(view.waiting.len());
        for (i, w) in view.waiting.iter().enumerate().take(window) {
            if admitted[i] || !w.ready {
                continue; // never dispatch against the dependency order
            }
            if preemptable.is_empty() {
                break;
            }
            let pw = self.priority(w);
            // Walk victims from lowest priority up; C2 skips ancestors.
            let mut chosen: Option<usize> = None;
            for (j, &(rp, r)) in preemptable.iter().enumerate() {
                if world.depends_on(w.id, view.running[r].id) {
                    continue; // C2
                }
                let gap = pw - rp;
                if gap <= 0.0 {
                    // C1 failed against the lowest-priority candidate; all
                    // later candidates have higher priority still.
                    break;
                }
                if self.pp_allows(gap) {
                    chosen = Some(j);
                    break;
                } else {
                    // PP vetoed this victim; a higher-priority victim has a
                    // smaller gap and will be vetoed too.
                    break;
                }
            }
            if let Some(j) = chosen {
                let (_, victim) = preemptable.remove(j);
                actions.push(PreemptAction { evict: view.running[victim].id, admit: w.id });
                admitted[i] = true;
            }
        }
        actions
    }
}

impl Default for DspPolicy {
    fn default() -> Self {
        DspPolicy::new(DspParams::default())
    }
}

impl PreemptPolicy for DspPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn begin_epoch(&mut self, now: Time, views: &[NodeView], world: &WorldCtx<'_>) {
        self.engine.begin_epoch(now, views, world, self.params.gamma);
        self.p_bar = self.engine.mean_gap();
    }

    fn decide(&mut self, now: Time, view: &NodeView, world: &WorldCtx<'_>) -> Vec<PreemptAction> {
        if view.running.is_empty() || view.waiting.is_empty() {
            return Vec::new();
        }
        // Pass 1 walks the urgent entries `begin_epoch`'s scan recorded for
        // this view.
        let (mut cand, mut admitted) = self.take_scratch();
        let urgent = self.engine.urgent_of(view, now).iter().map(|&i| i as usize);
        let actions = self.algorithm1(now, view, world, urgent, &mut cand, &mut admitted);
        (self.cand, self.admitted) = (cand, admitted);
        actions
    }

    fn checkpointing(&self) -> bool {
        true // DSP adopts checkpoint-restart [29]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::NodeId;
    use dsp_dag::generate::gen_dag;
    use dsp_dag::{Dag, DagShape, Job, JobClass, JobId, TaskId, TaskSpec};
    use dsp_units::{Mi, ResourceVec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A task that, at [`NOW`], has waited `wait_ms` and may wait
    /// `allow_ms` more.
    fn snap(id: TaskId, running: bool, rem_ms: u64, wait_ms: u64, allow_ms: u64) -> TaskSnapshot {
        TaskSnapshot {
            id,
            remaining_work: Mi::new(1.0),
            remaining_time: Dur::from_millis(rem_ms),
            waited: Dur::from_millis(wait_ms),
            wait_since: if running { None } else { Some(NOW) },
            deadline: NOW + Dur::from_millis(rem_ms + allow_ms),
            running,
            ready: true,
            demand: ResourceVec::cpu_mem(0.1, 0.1),
            size: Mi::new(1.0),
            preemptions: 0,
        }
    }

    fn flat_jobs(n_tasks: u32) -> Vec<Job> {
        vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); n_tasks as usize],
            Dag::new(n_tasks as usize),
        )]
    }

    fn chain_jobs() -> Vec<Job> {
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); 2],
            dag,
        )]
    }

    const NOW: Time = Time::from_secs(10);

    /// The engine epoch these tests run under unless they say otherwise.
    const EPOCH: Dur = Dur::from_secs(1);

    fn run_epoch(policy: &mut DspPolicy, view: NodeView, jobs: &[Job]) -> Vec<PreemptAction> {
        run_epoch_at(EPOCH, policy, view, jobs)
    }

    /// One epoch at [`NOW`] under an engine whose epoch is `epoch`.
    fn run_epoch_at(
        epoch: Dur,
        policy: &mut DspPolicy,
        view: NodeView,
        jobs: &[Job],
    ) -> Vec<PreemptAction> {
        let world = WorldCtx { jobs, now: NOW, epoch };
        let views = vec![view];
        policy.begin_epoch(NOW, &views, &world);
        policy.decide(NOW, &views[0], &world)
    }

    #[test]
    fn short_waiting_task_preempts_long_running_task() {
        let jobs = flat_jobs(2);
        // Running task: long remaining; waiting: short remaining and has
        // waited — C1 holds. (With only two live tasks the PP ratio is
        // identically 1, so this exercises the W/oPP arm; PP behaviour has
        // its own test below.)
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 60_000, 0, 500_000)],
            waiting: vec![snap(TaskId::new(0, 1), false, 500, 5_000, 500_000)],
            slots: 1,
        };
        let acts = run_epoch(
            &mut DspPolicy::new(DspParams { use_pp: false, ..DspParams::default() }),
            view,
            &jobs,
        );
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].evict, TaskId::new(0, 0));
        assert_eq!(acts[0].admit, TaskId::new(0, 1));
    }

    #[test]
    fn c1_blocks_lower_priority_waiter() {
        let jobs = flat_jobs(2);
        // Waiting task has *longer* remaining and no waiting credit: lower
        // priority than the running one → no preemption.
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 500, 0, 500_000)],
            waiting: vec![snap(TaskId::new(0, 1), false, 60_000, 0, 500_000)],
            slots: 1,
        };
        let acts = run_epoch(&mut DspPolicy::default(), view, &jobs);
        assert!(acts.is_empty());
    }

    #[test]
    fn c2_blocks_preempting_own_ancestor() {
        let jobs = chain_jobs();
        // Waiting task 1 depends on running task 0; even with a huge
        // priority edge it must not evict its own precedent.
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 60_000, 0, 500_000)],
            waiting: vec![snap(TaskId::new(0, 1), false, 100, 400_000, 500_000)],
            slots: 1,
        };
        let acts = run_epoch(&mut DspPolicy::default(), view, &jobs);
        // Pass 1 (τ override) must also respect C2 → no actions at all.
        assert!(acts.is_empty());
    }

    #[test]
    fn urgent_task_preempts_regardless_of_c1() {
        let jobs = flat_jobs(2);
        // Waiting task has lower priority but almost no allowable waiting
        // time left (50 ms ≤ ε, still > 0 so it is savable): the urgent
        // pass fires regardless of C1.
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 500, 0, 500_000)],
            waiting: vec![snap(TaskId::new(0, 1), false, 60_000, 0, 50)],
            slots: 1,
        };
        let acts = run_epoch(&mut DspPolicy::default(), view, &jobs);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].admit, TaskId::new(0, 1));
    }

    #[test]
    fn deadline_protected_running_task_is_not_preemptable() {
        let jobs = flat_jobs(2);
        // Running task's allowable wait (0.5 s) is below the epoch (1 s):
        // evicting it could miss its deadline → not preemptable, even for
        // an urgent waiter.
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 60_000, 0, 500)],
            waiting: vec![snap(TaskId::new(0, 1), false, 100, 60_000, 0)],
            slots: 1,
        };
        let acts = run_epoch(&mut DspPolicy::default(), view, &jobs);
        assert!(acts.is_empty());
    }

    #[test]
    fn preemptable_horizon_is_the_engine_epoch() {
        // The running task may wait 3 s more: evicting it for one epoch is
        // safe under a 1 s engine epoch, not under a 5 s one.
        let jobs = flat_jobs(2);
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 60_000, 0, 3_000)],
            waiting: vec![snap(TaskId::new(0, 1), false, 100, 60_000, 50)],
            slots: 1,
        };
        let at = |secs| {
            run_epoch_at(Dur::from_secs(secs), &mut DspPolicy::default(), view.clone(), &jobs)
        };
        let evict = PreemptAction { evict: TaskId::new(0, 0), admit: TaskId::new(0, 1) };
        assert_eq!(at(1), vec![evict]);
        assert!(at(5).is_empty());
    }

    #[test]
    fn pp_filter_suppresses_marginal_gaps() {
        // Many live tasks with close priorities: the mean gap is small but
        // the waiter's edge over the victim is smaller than ρ·P̄.
        let jobs = flat_jobs(4);
        let view = NodeView {
            node: NodeId(0),
            running: vec![
                snap(TaskId::new(0, 0), true, 10_000, 0, 500_000),
                snap(TaskId::new(0, 1), true, 11_000, 0, 500_000),
            ],
            waiting: vec![
                snap(TaskId::new(0, 2), false, 9_000, 0, 500_000),
                snap(TaskId::new(0, 3), false, 60_000, 0, 500_000),
            ],
            slots: 2,
        };
        let with_pp = run_epoch(&mut DspPolicy::default(), view.clone(), &jobs);
        let without = run_epoch(
            &mut DspPolicy::new(DspParams { use_pp: false, ..DspParams::default() }),
            view,
            &jobs,
        );
        // Without PP the marginal preemption happens; with PP it is vetoed.
        assert!(without.len() > with_pp.len(), "PP should veto marginal gaps: {with_pp:?}");
        assert!(with_pp.is_empty());
    }

    #[test]
    fn delta_window_limits_candidates() {
        let jobs = flat_jobs(12);
        // 10 waiting tasks, all far better than the single running task;
        // δ = 0.1 admits only the head of the queue → exactly 1 action
        // (only 1 preemptable victim anyway), and it must be the head.
        let mut waiting = Vec::new();
        for i in 1..11u32 {
            waiting.push(snap(TaskId::new(0, i), false, 100, 5_000, 500_000));
        }
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 600_000, 0, 500_000)],
            waiting,
            slots: 1,
        };
        let mut p = DspPolicy::new(DspParams { delta: 0.1, ..DspParams::default() });
        let acts = run_epoch(&mut p, view, &jobs);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].admit, TaskId::new(0, 1));
    }

    #[test]
    fn one_victim_per_epoch_per_slot() {
        // Two waiters, one preemptable running task: only one action.
        let jobs = flat_jobs(3);
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 600_000, 0, 500_000)],
            waiting: vec![
                snap(TaskId::new(0, 1), false, 100, 5_000, 500_000),
                snap(TaskId::new(0, 2), false, 200, 5_000, 500_000),
            ],
            slots: 1,
        };
        let acts = run_epoch(&mut DspPolicy::default(), view, &jobs);
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn lost_cause_is_not_urgent() {
        // A task whose allowable waiting time has saturated to zero can no
        // longer meet its deadline: it must NOT trigger the urgent pass
        // (else it evicts someone every epoch for the rest of the run).
        let jobs = flat_jobs(2);
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 500, 0, 500_000)],
            waiting: vec![snap(TaskId::new(0, 1), false, 60_000, 0, 0)],
            slots: 1,
        };
        let acts = run_epoch(&mut DspPolicy::default(), view, &jobs);
        assert!(acts.is_empty());
    }

    /// `decide` with the pass 1 the urgent list replaced: a walk of the
    /// whole waiting queue that tests each entry inline. The reference the
    /// fused `decide` is held to.
    fn decide_ref(
        policy: &mut DspPolicy,
        now: Time,
        view: &NodeView,
        world: &WorldCtx<'_>,
    ) -> Vec<PreemptAction> {
        if view.running.is_empty() || view.waiting.is_empty() {
            return Vec::new();
        }
        let urgent = view.waiting.iter().enumerate().filter_map(|(i, w)| {
            if !w.ready {
                return None;
            }
            let allowable = w.allowable_wait(now);
            let savable = allowable > Dur::ZERO;
            let urgent = (savable && allowable <= EPSILON) || w.waiting(now) >= TAU;
            urgent.then_some(i)
        });
        let (mut cand, mut admitted) = policy.take_scratch();
        policy.algorithm1(now, view, world, urgent, &mut cand, &mut admitted)
    }

    /// A random world for the pass-1 property: jobs with random DAGs, and
    /// views whose tasks are ready or not, have `t^a` below zero, at zero,
    /// straddling ε or far from it, and have waited past τ or not.
    fn random_epoch(rng: &mut StdRng, n_nodes: usize) -> (Vec<Job>, Vec<NodeView>) {
        let jobs: Vec<Job> = (0..3u32)
            .map(|j| {
                let n = rng.gen_range(2..9usize);
                let dag = gen_dag(rng, n, DagShape::Layered { depth: 3 }, 3);
                let tasks = vec![TaskSpec::sized(1000.0); n];
                Job::new(JobId(j), JobClass::Small, Time::ZERO, Time::MAX, tasks, dag)
            })
            .collect();
        let mut ids: Vec<TaskId> =
            jobs.iter().flat_map(|j| (0..j.num_tasks() as u32).map(|v| j.task_id(v))).collect();
        let eps_ms = EPSILON.as_micros() / 1_000;
        let tau_ms = TAU.as_micros() / 1_000;
        let mut views = Vec::new();
        for node in 0..n_nodes as u32 {
            let mut view =
                NodeView { node: NodeId(node), running: vec![], waiting: vec![], slots: 4 };
            for k in 0..rng.gen_range(0..12usize) {
                let Some(id) = ids.pop() else { break };
                let running = k < 3 && rng.gen_bool(0.5);
                let rem_ms = rng.gen_range(1..60_000u64);
                let wait_ms = match rng.gen_range(0..3) {
                    0 => rng.gen_range(0..tau_ms),
                    1 => tau_ms,
                    _ => rng.gen_range(0..3 * tau_ms + 1),
                };
                let mut s = snap(id, running, rem_ms, wait_ms, 0);
                // t^a = deadline − t^rem − now: lost, exactly 0, in (0, ε],
                // just past ε, or roomy.
                let allow_ms = match rng.gen_range(0..5) {
                    0 => 0,
                    1 => rng.gen_range(1..eps_ms + 1),
                    2 => eps_ms + 1,
                    3 => rng.gen_range(0..600_000),
                    _ => 0,
                };
                s.deadline = NOW + Dur::from_millis(rem_ms + allow_ms);
                if rng.gen_range(0..5) == 4 {
                    s.deadline = NOW - Dur::from_millis(rng.gen_range(0..5_000));
                    // lost cause
                }
                s.ready = rng.gen_bool(0.6);
                if running {
                    view.running.push(s);
                } else {
                    view.waiting.push(s);
                }
            }
            views.push(view);
        }
        (jobs, views)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Pass 1 over the urgent list the epoch scan recorded gives the
        /// same actions as the whole-queue walk, for every view of the
        /// epoch.
        #[test]
        fn fused_pass_1_matches_the_whole_queue_walk(
            seed in 0u64..1_000_000,
            n_nodes in 1usize..5,
            use_pp in prop::bool::ANY,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = DspParams {
                delta: rng.gen_range(0.0..1.0),
                rho: rng.gen_range(1.0..3.0),
                use_pp,
                ..DspParams::default()
            };
            let (jobs, views) = random_epoch(&mut rng, n_nodes);
            let world = WorldCtx { jobs: &jobs, now: NOW, epoch: EPOCH };
            let mut policy = DspPolicy::new(params);
            policy.begin_epoch(NOW, &views, &world);
            for view in &views {
                let fused = policy.decide(NOW, view, &world);
                prop_assert_eq!(fused, decide_ref(&mut policy, NOW, view, &world));
            }
        }
    }

    #[test]
    fn names_distinguish_ablation() {
        assert_eq!(DspPolicy::default().name(), "DSP");
        assert_eq!(
            DspPolicy::new(DspParams { use_pp: false, ..DspParams::default() }).name(),
            "DSPW/oPP"
        );
        assert!(DspPolicy::default().checkpointing());
    }
}
