//! Dependency-aware task priorities: Eqs. 12 and 13.
//!
//! A task with live dependents gets the recursive priority
//!
//! ```text
//! P(T) = Σ_{c ∈ children(T), c not done} (γ + 1) · P(c)        (Eq. 12)
//! ```
//!
//! and a task with no live dependents gets the leaf priority
//!
//! ```text
//! P(T) = ω1 · 1/t_rem + ω2 · t_w + ω3 · t_a                    (Eq. 13)
//! ```
//!
//! with the Table II weights ω = ([`OMEGA1`], [`OMEGA2`], [`OMEGA3`]) =
//! (0.5, 0.3, 0.2); γ is [`crate::DspParams::gamma`]. Children that have
//! already finished contribute nothing — their subtree is history; a task
//! whose children are all done is, for priority purposes, a leaf.

use crate::dsp::is_urgent;
use dsp_dag::TaskId;
use dsp_sim::{NodeView, TaskSnapshot, WorldCtx};
use dsp_units::{Dur, Time};

/// ω1 (Table II): Eq. 13's weight of inverse remaining time.
pub const OMEGA1: f64 = 0.5;
/// ω2 (Table II): Eq. 13's weight of accumulated waiting time.
pub const OMEGA2: f64 = 0.3;
/// ω3 (Table II): Eq. 13's weight of allowable waiting time.
pub const OMEGA3: f64 = 0.2;

/// Floor on remaining time so `1/t_rem` stays finite as a task approaches
/// completion.
const MIN_REMAINING: Dur = Dur::from_millis(1);

/// `1/t_rem` in 1/s, floored at [`MIN_REMAINING`]: the part of Eq. 13 that
/// does not move while a task waits, so [`PriorityEngine`] memoises it.
#[inline]
fn inv_remaining(rem: Dur) -> f64 {
    1.0 / rem.max(MIN_REMAINING).as_secs_f64()
}

/// Eq. 13 from its three inputs; the one place its arithmetic is written.
#[inline]
fn eq13(inv_rem: f64, waited: Dur, allowable: Dur) -> f64 {
    OMEGA1 * inv_rem + OMEGA2 * waited.as_secs_f64() + OMEGA3 * allowable.as_secs_f64()
}

/// Counters exposed by [`PriorityEngine`] for the perf harness: how much
/// per-epoch work the engine did (the workspace forbids `unsafe`, so a
/// counting allocator is off the table — these logical counters are the
/// observable substitute).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityEngineStats {
    /// Epochs processed since construction (or since a world reset).
    pub epochs: u64,
    /// Job-epochs scanned (a job visible in some epoch's views).
    pub jobs_touched: u64,
    /// Job-epochs where the Eq. 12 recursion ran: every touched one.
    pub jobs_recomputed: u64,
    /// Always 0. A live job always holds a waiting or running task whose
    /// `t_w`/`t_rem` moved since the previous epoch, so no recursion can be
    /// skipped; the field remains for the harnesses that report it.
    pub jobs_skipped: u64,
    /// Times the persistent arenas were rebuilt because the job list
    /// changed shape (new run / non-append world change).
    pub world_resets: u64,
}

/// One task's arena slot. The scan writes all four fields, the Eq. 12
/// recursion reads `prio` and `stamp` of a job's children: interleaved, a
/// child costs one cache line, not two.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Eq. 12/13 priority, valid where `stamp` is this epoch: the scan
    /// writes Eq. 13, the recursion overwrites it with Eq. 12 where a live
    /// child contributes.
    prio: f64,
    /// Epoch stamp marking the task live this epoch.
    stamp: u64,
    /// `t_rem` in µs that `inv_rem` was computed from. A waiting task's
    /// `t_rem` is fixed from queue insertion to removal, so most epochs
    /// find it unchanged and skip both divisions.
    rem_us: u64,
    /// Memoised [`inv_remaining`] of `rem_us`.
    inv_rem: f64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot { prio: f64::NAN, stamp: 0, rem_us: 0, inv_rem: inv_remaining(Dur::ZERO) }
    }
}

/// Per-job persistent scratch: one slot per task, reused across epochs.
#[derive(Debug, Clone, Default)]
struct JobScratch {
    /// Arenas sized to the job's task count (lazily, on first touch).
    init: bool,
    /// Cached topological order — the naive path re-runs Kahn's algorithm
    /// (allocating) per job per epoch; the DAG never changes, so once is
    /// enough.
    topo: Vec<u32>,
    /// The DAG's children in CSR form: task `v`'s are
    /// `child[child_at[v]..child_at[v + 1]]`, in the DAG's order (Eq. 12's
    /// summation order).
    child_at: Vec<u32>,
    child: Vec<u32>,
    slots: Vec<Slot>,
    /// The live tasks in topological order: exactly the tasks stamped
    /// `touch_epoch` once an epoch's scan is reconciled, and those stamped
    /// `prev_touch` during the scan.
    order: Vec<u32>,
    /// Epoch this job was last seen in some view.
    touch_epoch: u64,
    /// The job's touch epoch before this one.
    prev_touch: u64,
    /// A task outside `order` went live this epoch: rebuild the list.
    grown: bool,
    /// Live tasks this epoch.
    live: u32,
}

impl JobScratch {
    /// Size the arenas to `job` and cache its topo order and children.
    fn init(&mut self, job: &dsp_dag::Job) {
        let n_tasks = job.num_tasks();
        self.topo = job.dag.topo_order();
        self.child_at = Vec::with_capacity(n_tasks + 1);
        self.child_at.push(0);
        for v in 0..n_tasks as u32 {
            self.child.extend_from_slice(job.dag.children(v));
            self.child_at.push(self.child.len() as u32);
        }
        self.slots = vec![Slot::default(); n_tasks];
        self.init = true;
        self.grown = true;
    }
}

/// One scanned view's run of urgent entries in [`PriorityEngine`]'s list.
#[derive(Debug, Clone, Copy)]
struct UrgentRun {
    /// The view's node, by index.
    node: usize,
    /// The view's waiting length when scanned.
    waiting: usize,
    /// The view's entries are `urgent[start..end]`.
    start: usize,
    end: usize,
}

/// Incremental Eq. 12/13 evaluator with persistent per-job arenas.
///
/// Functionally identical to the test oracle
/// `reference::compute_priorities_ref` — bit-for-bit, including
/// floating-point summation order — but instead of rebuilding a
/// map of `Vec<Option<TaskSnapshot>>` plus per-job scratch vectors every
/// epoch it:
///
/// * keeps one arena per job (dense-indexed by the job's position in the
///   sorted `WorldCtx::jobs` slice), holding a cached topo order, the
///   children in CSR form, one [`Slot`] per task (priority, epoch stamp and
///   the memoised `1/t_rem`), and the list of the job's live tasks in topo
///   order;
/// * scans the views once, in order, stamping liveness and evaluating Eq. 13
///   from the snapshot in hand (a task listed twice keeps its last value,
///   as the reference's slot overwrite does); the same scan records
///   Algorithm 1's urgent entries of each view;
/// * runs Eq. 12 over the live list only, not over every topo slot, and
///   only for tasks with children (a sink keeps its Eq. 13 value): the
///   list is rebuilt when a task that was not live at the job's previous
///   epoch appears (an injection), and compacted when tasks leave;
/// * folds (min, max, live-count) during the recursion so the global mean
///   neighbour gap needs no second pass over all tasks.
///
/// The world may grow (jobs appended with increasing ids, as the engine
/// and online driver do); any other shape change resets the arenas and the
/// engine rebuilds transparently, so reusing one policy across runs stays
/// correct.
#[derive(Debug, Clone, Default)]
pub struct PriorityEngine {
    /// `ids[dense]` = job id — mirror of the world's sorted job slice.
    ids: Vec<u32>,
    jobs: Vec<JobScratch>,
    /// Dense indices of jobs seen this epoch.
    touched: Vec<u32>,
    epoch: u64,
    live: usize,
    lo: f64,
    hi: f64,
    /// Instant of the last scan.
    now: Time,
    /// Algorithm 1's urgent entries of the views the last scan saw:
    /// positions in each view's waiting list, ascending, view after view.
    urgent: Vec<u32>,
    /// Where each of those views' entries sit in `urgent`.
    urgent_runs: Vec<UrgentRun>,
    stats: PriorityEngineStats,
}

impl PriorityEngine {
    /// New engine with empty arenas.
    pub fn new() -> Self {
        PriorityEngine::default()
    }

    /// Re-evaluate priorities for one epoch at instant `now` under the
    /// level coefficient `gamma`, and record each view's urgent entries
    /// (Algorithm 1 line 4) for DSP's `decide`. `views` are the
    /// epoch's node views, one per node in node order; `world` the sorted
    /// job slice.
    pub fn begin_epoch(&mut self, now: Time, views: &[NodeView], world: &WorldCtx<'_>, gamma: f64) {
        self.sync_world(world);
        self.epoch += 1;
        self.stats.epochs += 1;
        let epoch = self.epoch;
        self.touched.clear();
        self.now = now;
        self.urgent.clear();
        self.urgent_runs.clear();

        // --- Scan pass: stamp live tasks and write their Eq. 13 value,
        // running before waiting within a view, as the reference reads
        // them. ---
        for view in views {
            for s in &view.running {
                self.scan(s, s.waiting(now), s.allowable_wait(now), world);
            }
            let start = self.urgent.len();
            for (i, s) in view.waiting.iter().enumerate() {
                let (waited, allowable) = (s.waiting(now), s.allowable_wait(now));
                self.scan(s, waited, allowable, world);
                if is_urgent(s.ready, allowable, waited) {
                    self.urgent.push(i as u32);
                }
            }
            let (node, waiting, end) = (view.node.idx(), view.waiting.len(), self.urgent.len());
            self.urgent_runs.push(UrgentRun { node, waiting, start, end });
        }

        // --- Recursion pass: Eq. 12 over every touched job's live tasks
        // with children, in reverse topo order; a task no live child feeds
        // keeps Eq. 13. ---
        self.live = 0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let scale = gamma + 1.0;
        for &d in &self.touched {
            let js = &mut self.jobs[d as usize];
            self.stats.jobs_recomputed += 1;
            let JobScratch { topo, child_at, child, slots, order, grown, live, .. } = js;
            if *grown {
                order.clear();
                order.extend(topo.iter().copied().filter(|&v| slots[v as usize].stamp == epoch));
            } else if order.len() != *live as usize {
                order.retain(|&v| slots[v as usize].stamp == epoch);
            }
            for &v in order.iter().rev() {
                let v = v as usize;
                let kids = &child[child_at[v] as usize..child_at[v + 1] as usize];
                if !kids.is_empty() {
                    // Same child order and summation order as the
                    // reference — bit-for-bit equality depends on it.
                    let child_sum: f64 = kids
                        .iter()
                        .map(|&c| slots[c as usize])
                        .filter(|c| c.stamp == epoch)
                        .map(|c| scale * c.prio)
                        .sum();
                    if child_sum > 0.0 {
                        slots[v].prio = child_sum;
                    }
                }
                // Compares, not `f64::min`/`max`: each is one `minsd`/`maxsd`
                // on the loop-carried extremes instead of a NaN-guarded
                // five-instruction chain. Both skip a NaN and keep an
                // infinity, as `min`/`max` do.
                let p = slots[v].prio;
                if p < lo {
                    lo = p;
                }
                if p > hi {
                    hi = p;
                }
            }
            self.live += *live as usize;
        }
        self.lo = lo;
        self.hi = hi;
    }

    /// Stamp one snapshot live and write its Eq. 13 value. Inlined into
    /// both scan loops: as a call it costs the scan a third of its time.
    #[inline(always)]
    fn scan(&mut self, s: &TaskSnapshot, waited: Dur, allowable: Dur, world: &WorldCtx<'_>) {
        let epoch = self.epoch;
        let dense = self.dense_of(s.id.job.get()).expect("job appeared in an epoch view");
        let js = &mut self.jobs[dense];
        if js.touch_epoch != epoch {
            js.prev_touch = js.touch_epoch;
            js.touch_epoch = epoch;
            js.live = 0;
            js.grown = false;
            if !js.init {
                js.init(&world.jobs[dense]);
            }
            self.touched.push(dense as u32);
            self.stats.jobs_touched += 1;
        }
        let slot = &mut js.slots[s.id.idx()];
        let rem_us = s.remaining_time.as_micros();
        if slot.rem_us != rem_us {
            slot.rem_us = rem_us;
            slot.inv_rem = inv_remaining(s.remaining_time);
        }
        slot.prio = eq13(slot.inv_rem, waited, allowable);
        if slot.stamp != epoch {
            js.grown |= slot.stamp != js.prev_touch;
            slot.stamp = epoch;
            js.live += 1;
        }
    }

    /// The urgent entries of `view` recorded by the last scan, as positions
    /// in `view.waiting`. `view` must be one that scan saw: the engine hands
    /// over one view per node in node order, so a view's run sits at its
    /// node's index.
    pub(crate) fn urgent_of(&self, view: &NodeView, now: Time) -> &[u32] {
        let node = view.node.idx();
        let run = self.urgent_runs[node];
        debug_assert!(
            now == self.now && run.node == node && run.waiting == view.waiting.len(),
            "node {node}'s view at {now} was not scanned by this epoch's begin_epoch"
        );
        &self.urgent[run.start..run.end]
    }

    /// Dense index of a job id: one probe when ids are dense
    /// (`ids[jid] == jid`, every batch run), a binary search otherwise.
    #[inline]
    fn dense_of(&self, jid: u32) -> Option<usize> {
        match self.ids.get(jid as usize) {
            Some(&id) if id == jid => Some(jid as usize),
            _ => self.ids.binary_search(&jid).ok(),
        }
    }

    /// Priority of a task, if it was live this epoch.
    #[inline]
    pub fn get(&self, t: &TaskId) -> Option<f64> {
        let js = &self.jobs[self.dense_of(t.job.get())?];
        let slot = js.slots.get(t.idx())?;
        if slot.stamp != self.epoch || slot.prio.is_nan() {
            return None;
        }
        Some(slot.prio)
    }

    /// Number of live tasks this epoch.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no task was live this epoch.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The PP filter's global scale `P̄` for this epoch — same telescoped
    /// `(max − min)/(n − 1)` as `reference::mean_neighbor_gap`, from the
    /// extremes folded during `begin_epoch`.
    pub fn mean_gap(&self) -> f64 {
        if self.live < 2 || !self.lo.is_finite() || !self.hi.is_finite() {
            return 0.0;
        }
        (self.hi - self.lo) / (self.live - 1) as f64
    }

    /// Work counters for the perf harness.
    pub fn stats(&self) -> PriorityEngineStats {
        self.stats
    }

    /// Align the arenas with the world's job slice. Jobs are append-only
    /// in the engine and the online driver, so the common case is a cheap
    /// prefix check plus extension; any other change resets the arenas.
    fn sync_world(&mut self, world: &WorldCtx<'_>) {
        let prefix_ok = self.ids.len() <= world.jobs.len()
            && self.ids.iter().zip(world.jobs).all(|(&id, j)| id == j.id.get());
        if !prefix_ok {
            self.ids.clear();
            self.jobs.clear();
            self.epoch = 0;
            self.stats.world_resets += 1;
        }
        for j in &world.jobs[self.ids.len()..] {
            self.ids.push(j.id.get());
            self.jobs.push(JobScratch::default());
        }
    }
}

/// The naive oracle the incremental [`PriorityEngine`] is held to, bit for
/// bit (`priority_equiv.rs`). Test builds only.
#[cfg(test)]
pub(crate) mod reference {
    use super::{eq13, inv_remaining};
    use dsp_dag::{JobId, TaskId};
    use dsp_sim::{NodeView, TaskSnapshot, WorldCtx};
    use dsp_units::Time;
    use std::collections::BTreeMap;

    /// Computed priorities for every live (not-done) task visible this epoch,
    /// stored per job for hash-free task lookup (the preemption policy reads
    /// millions of priorities per run on large sweeps). A `BTreeMap` keyed by
    /// job id keeps [`PriorityMap::values`] in a fixed order — hash-map
    /// iteration is seeded per process, which the determinism contract (and
    /// lint D1) forbids in this crate.
    #[derive(Debug, Clone, Default)]
    pub struct PriorityMap {
        per_job: BTreeMap<u32, Vec<f64>>,
        len: usize,
    }

    impl PriorityMap {
        /// New empty map.
        pub fn new() -> Self {
            PriorityMap::default()
        }

        /// Priority of a task, if it was live this epoch.
        pub fn get(&self, t: &TaskId) -> Option<f64> {
            let v = self.per_job.get(&t.job.get())?;
            let p = *v.get(t.idx())?;
            if p.is_nan() {
                None
            } else {
                Some(p)
            }
        }

        /// Number of live tasks with priorities.
        pub fn len(&self) -> usize {
            self.len
        }

        /// True when no task is live.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Iterate all priorities (job-id order, task order within a job).
        pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
            self.per_job.values().flatten().copied().filter(|p| !p.is_nan())
        }

        pub(crate) fn insert(&mut self, t: TaskId, n_tasks: usize, p: f64) {
            let v = self.per_job.entry(t.job.get()).or_insert_with(|| vec![f64::NAN; n_tasks]);
            if v[t.idx()].is_nan() {
                self.len += 1;
            }
            v[t.idx()] = p;
        }
    }

    /// Table II's γ, the level coefficient the tests run Eq. 12 under.
    pub const GAMMA: f64 = 0.5;

    /// Eq. 13 for one snapshot at instant `now`.
    pub fn leaf_priority(s: &TaskSnapshot, now: Time) -> f64 {
        eq13(inv_remaining(s.remaining_time), s.waiting(now), s.allowable_wait(now))
    }

    /// Compute the Eq. 12/13 priorities of every task that appears in the
    /// epoch's node views (running or waiting anywhere in the cluster), naively:
    /// rebuilds every scratch structure from
    /// scratch each call. [`PriorityEngine`] must stay bit-for-bit equal to
    /// this across any epoch sequence — a property-based test enforces it.
    ///
    /// The recursion runs per job in reverse topological order; children that
    /// are finished (absent from every view) are skipped, and a task whose
    /// remaining children are all finished falls back to the leaf formula.
    pub fn compute_priorities_ref(
        now: Time,
        views: &[NodeView],
        world: &WorldCtx<'_>,
        gamma: f64,
    ) -> PriorityMap {
        // Gather live snapshots per job (None slots = finished/absent). The
        // BTreeMap doubles as the deterministic job iteration order below.
        let mut snaps: BTreeMap<u32, Vec<Option<TaskSnapshot>>> = BTreeMap::new();
        for view in views {
            for s in view.running.iter().chain(view.waiting.iter()) {
                let job = world.job_of(s.id);
                snaps.entry(s.id.job.get()).or_insert_with(|| vec![None; job.num_tasks()])
                    [s.id.idx()] = Some(*s);
            }
        }
        let mut out = PriorityMap::new();
        for (&j, job_snaps) in &snaps {
            let job = world.find(JobId(j)).expect("job appeared in an epoch view");
            let mut prio = vec![f64::NAN; job.num_tasks()];
            for &v in job.dag.topo_order().iter().rev() {
                let Some(s) = &job_snaps[v as usize] else { continue }; // finished task
                let child_sum: f64 = job
                    .dag
                    .children(v)
                    .iter()
                    .map(|&c| prio[c as usize])
                    .filter(|p| !p.is_nan())
                    .map(|p| (gamma + 1.0) * p)
                    .sum();
                let p = if child_sum > 0.0 { child_sum } else { leaf_priority(s, now) };
                prio[v as usize] = p;
                out.insert(job.task_id(v), job.num_tasks(), p);
            }
        }
        out
    }

    /// The PP filter's global scale: sort all priorities ascending and average
    /// the gaps between neighbours (`P̄` in Section IV-B). Zero when fewer than
    /// two tasks are live.
    pub fn mean_neighbor_gap(map: &PriorityMap) -> f64 {
        if map.len() < 2 {
            return 0.0;
        }
        // The mean of sorted-neighbour gaps telescopes to (max − min)/(n−1):
        // no sort needed — an O(n) scan.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut n = 0usize;
        for p in map.values() {
            lo = lo.min(p);
            hi = hi.max(p);
            n += 1;
        }
        if n < 2 || !lo.is_finite() || !hi.is_finite() {
            return 0.0;
        }
        (hi - lo) / (n - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{
        compute_priorities_ref, leaf_priority, mean_neighbor_gap, PriorityMap, GAMMA,
    };
    use super::*;
    use dsp_cluster::NodeId;
    use dsp_dag::{Dag, Job, JobClass, JobId, TaskSpec};
    use dsp_units::{Mi, ResourceVec, Time};

    /// A waiting task that, at time zero, has waited `wait_ms` and may wait
    /// `allow_ms` more.
    fn snap(id: TaskId, rem_ms: u64, wait_ms: u64, allow_ms: u64) -> TaskSnapshot {
        TaskSnapshot {
            id,
            remaining_work: Mi::new(1.0),
            remaining_time: Dur::from_millis(rem_ms),
            waited: Dur::from_millis(wait_ms),
            wait_since: Some(Time::ZERO),
            deadline: Time::from_millis(rem_ms + allow_ms),
            running: false,
            ready: true,
            demand: ResourceVec::cpu_mem(0.1, 0.1),
            size: Mi::new(1.0),
            preemptions: 0,
        }
    }

    fn fig2_job() -> Job {
        let mut dag = Dag::new(7);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)] {
            dag.add_edge(u, v).unwrap();
        }
        Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); 7],
            dag,
        )
    }

    fn views_of(job: &Job, snaps: Vec<TaskSnapshot>) -> Vec<NodeView> {
        let _ = job;
        vec![NodeView { node: NodeId(0), running: vec![], waiting: snaps, slots: 1 }]
    }

    #[test]
    fn leaf_priority_matches_eq13() {
        let s = snap(TaskId::new(0, 0), 2_000, 4_000, 10_000);
        // 0.5·(1/2) + 0.3·4 + 0.2·10 = 0.25 + 1.2 + 2.0
        assert!((leaf_priority(&s, Time::ZERO) - 3.45).abs() < 1e-9);
    }

    #[test]
    fn remaining_time_floor_keeps_priority_finite() {
        let s = snap(TaskId::new(0, 0), 0, 0, 0);
        let p = leaf_priority(&s, Time::ZERO);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn root_of_fig2_outranks_everything() {
        // All 7 tasks live with identical leaf stats: the recursion gives
        // root = ((γ+1)·leaf·2 per mid)·… strictly above mids, above leaves
        // — the T1-first ordering the Fig. 2 discussion wants.
        let job = fig2_job();
        let snaps: Vec<_> = (0..7u32).map(|v| snap(job.task_id(v), 1_000, 0, 0)).collect();
        let views = views_of(&job, snaps);
        let jobs = vec![job.clone()];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let p = compute_priorities_ref(Time::ZERO, &views, &world, GAMMA);
        let at = |v: u32| p.get(&job.task_id(v)).unwrap();
        assert!(at(0) > at(1) && at(0) > at(2));
        assert!(at(1) > at(3) && at(2) > at(5));
        // Eq. 12 arithmetic: leaf = 0.5; mid = 2·1.5·0.5 = 1.5; root =
        // 2·1.5·1.5 = 4.5.
        assert!((at(3) - 0.5).abs() < 1e-9);
        assert!((at(1) - 1.5).abs() < 1e-9);
        assert!((at(0) - 4.5).abs() < 1e-9);
    }

    #[test]
    fn finished_children_stop_contributing() {
        // Only the root and one leaf are live: the root's priority is the
        // (γ+1)-scaled priority of that leaf alone.
        let job = fig2_job();
        let snaps = vec![snap(job.task_id(0), 1_000, 0, 0), snap(job.task_id(1), 1_000, 0, 0)];
        let views = views_of(&job, snaps);
        let jobs = vec![job.clone()];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let p = compute_priorities_ref(Time::ZERO, &views, &world, GAMMA);
        // Task 1's children (3, 4) are done → leaf formula (0.5); root sees
        // only child 1: 1.5·0.5 = 0.75.
        assert!((p.get(&job.task_id(1)).unwrap() - 0.5).abs() < 1e-9);
        assert!((p.get(&job.task_id(0)).unwrap() - 0.75).abs() < 1e-9);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn more_waiting_means_higher_priority() {
        let job = fig2_job();
        let snaps = vec![snap(job.task_id(3), 1_000, 0, 0), snap(job.task_id(4), 1_000, 9_000, 0)];
        let views = views_of(&job, snaps);
        let jobs = vec![job.clone()];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let p = compute_priorities_ref(Time::ZERO, &views, &world, GAMMA);
        assert!(p.get(&job.task_id(4)).unwrap() > p.get(&job.task_id(3)).unwrap());
    }

    #[test]
    fn mean_gap_of_evenly_spaced_priorities() {
        let mut m = PriorityMap::new();
        for (i, p) in [1.0f64, 3.0, 5.0, 7.0].iter().enumerate() {
            m.insert(TaskId::new(0, i as u32), 4, *p);
        }
        // Mean sorted-neighbour gap telescopes to (max − min)/(n − 1) = 2.
        assert!((mean_neighbor_gap(&m) - 2.0).abs() < 1e-12);
        let empty = PriorityMap::new();
        assert_eq!(mean_neighbor_gap(&empty), 0.0);
        let mut one = PriorityMap::new();
        one.insert(TaskId::new(0, 0), 1, 1.0);
        assert_eq!(mean_neighbor_gap(&one), 0.0);
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
        assert!(one.get(&TaskId::new(0, 0)).is_some());
        assert!(one.get(&TaskId::new(1, 0)).is_none());
    }

    #[test]
    fn cross_job_priorities_are_independent() {
        let j0 = fig2_job();
        let mut j1 = fig2_job();
        j1.id = JobId(1);
        let snaps = vec![snap(j0.task_id(3), 1_000, 0, 0), snap(TaskId::new(1, 3), 500, 0, 0)];
        let views = views_of(&j0, snaps);
        let jobs = vec![j0.clone(), j1];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let p = compute_priorities_ref(Time::ZERO, &views, &world, GAMMA);
        assert_eq!(p.len(), 2);
        // Shorter remaining → higher priority (both are leaves).
        assert!(p.get(&TaskId::new(1, 3)).unwrap() > p.get(&j0.task_id(3)).unwrap());
    }
}
