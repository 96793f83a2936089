//! The discrete-event simulation loop.

use crate::policy::{NodeView, PreemptAction, PreemptPolicy, TaskSnapshot, WorldCtx};
use crate::schedule::Schedule;
use crate::state::{NodeRt, RtState, TaskIndex, TaskRt};
use dsp_cluster::ClusterSpec;
use dsp_dag::{deadline::level_deadlines, Job, JobId};
use dsp_metrics::{JobOutcome, RunMetrics};
use dsp_units::{Dur, Mi, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// σ: the dispatch latency an evicted task pays on top of its recovery
/// time (Table II: 0.05 s).
pub const SIGMA: Dur = Dur::from_millis(50);

/// Queue lookahead: a node considers only the first `LOOKAHEAD` waiting
/// tasks for dispatch (the paper's queues run in planned-start order; a
/// blocked head stalls the node). When the node is completely idle, the
/// whole queue is scanned instead, which keeps the system deadlock-free
/// while still charging dependency-oblivious schedules for their
/// head-of-line inversions. Online preemption policies can always reach
/// deeper into the queue — rescuing stalled nodes is exactly their job.
pub const LOOKAHEAD: usize = 4;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Epoch length: how often the online preemption policy runs
    /// (Section III partitions the unit period into epochs).
    pub epoch: Dur,
    /// Hard wall on simulated time; a safety net against misbehaving
    /// schedules, not something healthy runs hit.
    pub max_time: Time,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(30 * 24 * 3600) }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Inject schedule batch `i`.
    Inject(usize),
    /// Epoch boundary: run the preemption policy.
    Epoch,
    /// Task `g` finishes, provided its generation still matches.
    Finish { g: usize, gen: u32 },
    /// Node crashes; `permanent` migrates its work.
    NodeDown { n: u32, permanent: bool },
    /// Node recovers from a transient crash.
    NodeUp { n: u32 },
    /// Node rate multiplied by `f64::from_bits(factor_bits)`.
    SlowDown { n: u32, factor_bits: u64 },
}

type HeapItem = Reverse<(u64, u64, Ev)>;

/// Point-in-time completion summary of one job (service `status` verb).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Total task count.
    pub total: usize,
    /// Tasks finished so far.
    pub finished: usize,
    /// Tasks currently occupying a slot.
    pub running: usize,
    /// Tasks waiting in a queue (injected, not yet dispatched).
    pub waiting: usize,
    /// True once every task is done.
    pub completed: bool,
    /// Completion instant, once completed.
    pub finish: Option<Time>,
}

/// The simulator. Construct, add one or more schedule batches, then
/// [`Engine::run`] with a policy — or drive it incrementally with
/// [`Engine::step_until`], feeding in more jobs and batches between steps
/// (the online-service mode).
pub struct Engine {
    jobs: Vec<Job>,
    cluster: ClusterSpec,
    cfg: EngineConfig,
    index: TaskIndex,
    tasks: Vec<TaskRt>,
    nodes: Vec<NodeRt>,
    events: BinaryHeap<HeapItem>,
    seq: u64,
    now: Time,
    metrics: RunMetrics,
    /// Batches registered before the first run/step.
    staged: Vec<(Time, Schedule)>,
    /// Batch payloads addressed by `Ev::Inject`; drained on injection.
    injected_batches: Vec<Schedule>,
    /// Unfinished-task count per dense job index.
    job_left: Vec<u32>,
    /// Accumulated task waiting per dense job (for the Fig. 6c metric).
    job_wait_us: Vec<u64>,
    /// Tasks injected so far and finished so far.
    injected: usize,
    finished: usize,
    pending_injections: usize,
    /// Events popped off the heap over the engine's lifetime. Observers
    /// (the service's snapshot publisher) compare stamps across steps to
    /// tell a quiet advance from one that actually changed state.
    processed: u64,
    /// True once the first run/step installed staged batches and faults.
    primed: bool,
    /// Whether the active policy wants epoch callbacks at all.
    epoch_enabled: bool,
    /// Whether an epoch event is currently in flight (the chain drops when
    /// the system idles and is re-armed by the next batch).
    epoch_live: bool,
    /// Liveness per node (fault injection).
    alive: Vec<bool>,
    /// Permanently failed nodes never accept new work.
    dead_forever: Vec<bool>,
    /// Straggler rate multiplier per node (1.0 = healthy).
    rate_factor: Vec<f64>,
    fault_plan: crate::faults::FaultPlan,
    /// The policy's node views, maintained rather than rebuilt: each
    /// node's `waiting` list mirrors `NodeRt::queue` index for index (kept
    /// so by [`Engine::queue_insert`] / [`Engine::queue_remove`] at every
    /// queue mutation), a snapshot is built only when a task enters a list,
    /// and a waiting snapshot, being clock-free, changes only when its task
    /// turns ready (`handle_finish` flips that flag). `handle_epoch`
    /// rebuilds just the running entries. Live only while `epoch_enabled`;
    /// a no-op policy pays nothing.
    views: Vec<NodeView>,
}

impl Engine {
    /// Build an engine owning `jobs` (sorted by strictly increasing
    /// `JobId`; ids need not be contiguous) and a cluster.
    ///
    /// Task deadlines are propagated through DAG levels once, using
    /// execution-time estimates at the cluster's mean rate (Section IV-B).
    pub fn new(jobs: Vec<Job>, cluster: ClusterSpec, cfg: EngineConfig) -> Self {
        assert!(!cluster.is_empty(), "cannot simulate an empty cluster");
        let n = cluster.len();
        let mut e = Engine {
            jobs: Vec::new(),
            cluster,
            cfg,
            index: TaskIndex::default(),
            tasks: Vec::new(),
            nodes: vec![NodeRt::default(); n],
            events: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            metrics: RunMetrics::default(),
            staged: Vec::new(),
            injected_batches: Vec::new(),
            job_left: Vec::new(),
            job_wait_us: Vec::new(),
            injected: 0,
            finished: 0,
            pending_injections: 0,
            processed: 0,
            primed: false,
            epoch_enabled: false,
            epoch_live: false,
            alive: vec![true; n],
            dead_forever: vec![false; n],
            rate_factor: vec![1.0; n],
            fault_plan: crate::faults::FaultPlan::none(),
            views: Vec::new(),
        };
        e.add_jobs(jobs);
        e
    }

    /// Register additional jobs; ids must exceed every id already known.
    /// Their tasks stay `NotArrived` until a schedule batch injects them.
    pub fn add_jobs(&mut self, jobs: Vec<Job>) {
        let mean = self.cluster.mean_rate();
        for job in jobs {
            let exec = job.exec_estimates(mean);
            let dls = level_deadlines(&job.dag, job.levels(), job.deadline, &exec);
            for v in 0..job.num_tasks() as u32 {
                self.tasks.push(TaskRt::new(
                    job.task(v).size,
                    job.dag.in_degree(v) as u32,
                    dls[v as usize],
                ));
            }
            self.job_left.push(job.num_tasks() as u32);
            self.job_wait_us.push(0);
            self.index.push_job(&job); // asserts monotone ids
            self.jobs.push(job);
        }
    }

    /// Register a deterministic fault schedule (crashes, stragglers).
    /// Before the first run/step the plan is staged and installed at prime
    /// time; afterwards the faults enter the event heap immediately, with
    /// instants before the current simulation time clamped to "now" — the
    /// online service injects failures mid-stream this way.
    pub fn add_faults(&mut self, plan: crate::faults::FaultPlan) {
        if !self.primed {
            self.fault_plan.faults.extend(plan.faults);
            return;
        }
        for f in &plan.faults {
            self.install_fault(f, self.now);
        }
    }

    /// Push one fault's events, clamping every instant to `floor`.
    fn install_fault(&mut self, f: &crate::faults::Fault, floor: Time) {
        match *f {
            crate::faults::Fault::NodeDown { node, at, up_at } => {
                let at = at.max(floor);
                self.push_event(at, Ev::NodeDown { n: node.0, permanent: up_at.is_none() });
                if let Some(up) = up_at {
                    self.push_event(up.max(at), Ev::NodeUp { n: node.0 });
                }
            }
            crate::faults::Fault::SlowDown { node, at, factor } => {
                let clamped = if factor.is_finite() { factor.clamp(1e-3, 1.0) } else { 1.0 };
                self.push_event(
                    at.max(floor),
                    Ev::SlowDown { n: node.0, factor_bits: clamped.to_bits() },
                );
            }
        }
    }

    /// Register a schedule batch to be injected at `at` (the paper runs the
    /// offline scheduler periodically; each period's output is one batch).
    /// After the first run/step, injection instants before the current
    /// simulation time are clamped to "now".
    pub fn add_batch(&mut self, at: Time, schedule: Schedule) {
        if !self.primed {
            self.staged.push((at, schedule));
            return;
        }
        let at = at.max(self.now);
        let i = self.injected_batches.len();
        self.injected_batches.push(schedule);
        self.pending_injections += 1;
        self.push_event(at, Ev::Inject(i));
        self.arm_epoch(at);
    }

    fn push_event(&mut self, at: Time, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse((at.as_micros(), self.seq, ev)));
    }

    /// Start the epoch chain at `from` unless one is already in flight.
    fn arm_epoch(&mut self, from: Time) {
        if self.epoch_enabled && !self.epoch_live {
            self.epoch_live = true;
            self.push_event(from + self.cfg.epoch, Ev::Epoch);
        }
    }

    /// One-time setup at the first run/step: move staged batches into the
    /// event heap, arm the epoch chain, install the fault plan.
    fn prime(&mut self, policy: &dyn PreemptPolicy) {
        if self.primed {
            return;
        }
        self.primed = true;
        self.epoch_enabled = !policy.is_noop();
        if self.epoch_enabled {
            debug_assert!(self.nodes.iter().all(|n| n.queue.is_empty() && n.running.is_empty()));
            self.views = self
                .cluster
                .nodes
                .iter()
                .map(|n| NodeView { node: n.id, slots: n.slots, ..NodeView::default() })
                .collect();
        }
        let staged = std::mem::take(&mut self.staged);
        let first_at = staged.iter().map(|(t, _)| *t).min();
        for (at, s) in staged {
            let i = self.injected_batches.len();
            self.injected_batches.push(s);
            self.pending_injections += 1;
            self.push_event(at, Ev::Inject(i));
        }
        if let Some(t0) = first_at {
            self.arm_epoch(t0);
        }
        let faults = std::mem::take(&mut self.fault_plan);
        for f in &faults.faults {
            self.install_fault(f, Time::ZERO);
        }
    }

    /// Process every event at or before `cap` (which never exceeds
    /// `max_time`); later events stay queued.
    fn drain_events(&mut self, policy: &mut dyn PreemptPolicy, cap: Time) {
        let cap_us = cap.as_micros();
        loop {
            match self.events.peek() {
                Some(&Reverse((t_us, _, _))) if t_us <= cap_us => {}
                _ => break,
            }
            let Some(Reverse((t_us, _, ev))) = self.events.pop() else { break };
            self.processed += 1;
            let t = Time::from_micros(t_us);
            debug_assert!(t >= self.now, "time must be monotone");
            self.now = t;
            match ev {
                Ev::Inject(i) => {
                    let schedule = std::mem::take(&mut self.injected_batches[i]);
                    self.handle_inject(&schedule);
                }
                Ev::Finish { g, gen } => self.handle_finish(g, gen),
                Ev::Epoch => self.handle_epoch(policy),
                Ev::NodeDown { n, permanent } => self.handle_node_down(n as usize, permanent),
                Ev::NodeUp { n } => self.handle_node_up(n as usize),
                Ev::SlowDown { n, factor_bits } => {
                    self.handle_slowdown(n as usize, f64::from_bits(factor_bits))
                }
            }
        }
    }

    /// Run the simulation to completion and return the collected metrics.
    pub fn run(&mut self, policy: &mut dyn PreemptPolicy) -> RunMetrics {
        self.prime(policy);
        self.drain_events(policy, self.cfg.max_time);
        // The engine's own last line of defence: the R5/R6 identities that
        // `dsp-verify` reports on, asserted over the record it hands out.
        #[cfg(debug_assertions)]
        {
            let h = self.history();
            for t in h.completed() {
                debug_assert_eq!(t.overhead_paid, t.overhead_owed(h.sigma), "R5: {}", t.task);
                debug_assert!(t.conserves_work(), "R6: {} retained work != size", t.task);
            }
            debug_assert_eq!(
                self.metrics.switch_overhead,
                h.policy_overhead(),
                "R5 overhead total"
            );
        }
        std::mem::take(&mut self.metrics)
    }

    /// Advance the simulation up to `until` (clamped at `max_time`) and
    /// stop, leaving later events queued. Simulation time lands exactly on
    /// the cap, so jobs/batches added afterwards arrive "now". The same
    /// policy must be used across all steps of one run.
    pub fn step_until(&mut self, policy: &mut dyn PreemptPolicy, until: Time) {
        self.prime(policy);
        let cap = until.min(self.cfg.max_time);
        self.drain_events(policy, cap);
        if cap > self.now {
            self.now = cap;
        }
    }

    /// True when every injected task finished and no injection is pending.
    pub fn idle(&self) -> bool {
        self.finished == self.injected && self.pending_injections == 0
    }

    /// Monotone count of events processed so far. Two equal stamps around
    /// a `step_until` mean the step changed nothing but the clock — the
    /// service uses this to reuse its published artifact across quiet
    /// ticks instead of re-cloning jobs and history.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Metrics collected so far, without consuming them.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The jobs the engine knows, ascending by id.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Completion summary of one job, `None` for unknown ids.
    pub fn job_progress(&self, id: JobId) -> Option<JobProgress> {
        let dense = self.index.try_job_dense(id)?;
        let range = self.index.tasks_of(dense);
        let total = range.len();
        let mut p = JobProgress {
            total,
            finished: 0,
            running: 0,
            waiting: 0,
            completed: false,
            finish: None,
        };
        let mut last_finish = Time::ZERO;
        for g in range {
            match self.tasks[g].state {
                RtState::Done => {
                    p.finished += 1;
                    last_finish = last_finish.max(self.tasks[g].finish);
                }
                RtState::Running => p.running += 1,
                RtState::Waiting => p.waiting += 1,
                RtState::NotArrived => {}
            }
        }
        if p.finished == total && total > 0 {
            p.completed = true;
            p.finish = Some(last_finish);
        }
        Some(p)
    }

    /// Execution accounting for every injected task, for post-run auditing
    /// (the `dsp-verify` crate checks the paper's overhead and
    /// work-conservation identities against this). Call after
    /// [`Engine::run`]; the engine retains its runtime state.
    pub fn history(&self) -> crate::history::ExecHistory {
        let tasks = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, rt)| rt.state != RtState::NotArrived)
            .map(|(g, rt)| {
                let id = self.index.id(g);
                let spec = self.job(id.job).task(id.index);
                crate::history::TaskHistory {
                    task: id,
                    node: rt.node,
                    planned_start: rt.planned_start,
                    finish: rt.finish,
                    completed: rt.state == RtState::Done,
                    preemptions: rt.preempt_count,
                    recovery_charges: rt.recovery_charges,
                    overhead_paid: rt.overhead_paid,
                    executed: rt.executed,
                    lost: rt.lost,
                    size: spec.size,
                    recovery: spec.recovery,
                }
            })
            .collect();
        crate::history::ExecHistory { sigma: SIGMA, tasks }
    }

    /// The job owning `id`; ids are validated when jobs are added.
    fn job(&self, id: JobId) -> &Job {
        &self.jobs[self.index.job_dense(id)]
    }

    fn handle_inject(&mut self, schedule: &Schedule) {
        self.pending_injections -= 1;
        // Offline batches are computed ahead of time and may target nodes
        // that have since failed permanently; such assignments are
        // redirected round-robin over the remaining nodes.
        let survivors: Vec<usize> =
            (0..self.cluster.len()).filter(|&k| !self.dead_forever[k]).collect();
        let mut rr = 0usize;
        // (node, queue key): sorted, each node's arrivals form one run in
        // its queue's own order.
        let mut arrivals: Vec<(usize, (u64, usize))> = Vec::new();
        for a in &schedule.assignments {
            let g = self.index.global(a.task);
            let target = if self.dead_forever[a.node.idx()] && !survivors.is_empty() {
                rr += 1;
                self.cluster.nodes[survivors[(rr - 1) % survivors.len()]].id
            } else {
                a.node
            };
            let rt = &mut self.tasks[g];
            debug_assert_eq!(rt.state, RtState::NotArrived, "task {} injected twice", a.task);
            rt.node = target;
            rt.planned_start = a.start;
            rt.state = RtState::Waiting;
            rt.wait_since = self.now;
            arrivals.push((target.idx(), NodeRt::queue_key(&self.tasks, g)));
            self.injected += 1;
        }
        arrivals.sort_unstable();
        let mut run: Vec<usize> = Vec::new();
        for node_arrivals in arrivals.chunk_by(|a, b| a.0 == b.0) {
            let n = node_arrivals[0].0;
            run.clear();
            run.extend(node_arrivals.iter().map(|&(_, (_, g))| g));
            self.queue_merge(n, &run);
            self.fill_node(n);
        }
    }

    fn rate_of(&self, g: usize) -> dsp_units::Mips {
        let n = self.tasks[g].node.idx();
        dsp_units::Mips::new(self.cluster.nodes[n].rate().get() * self.rate_factor[n])
    }

    /// Dispatch task `g` into a slot on its node. Caller must have removed
    /// it from the queue and checked readiness.
    fn dispatch(&mut self, g: usize) {
        let rate = self.rate_of(g);
        let rt = &mut self.tasks[g];
        debug_assert_eq!(rt.state, RtState::Waiting);
        debug_assert!(rt.ready());
        let stint = self.now.since(rt.wait_since);
        rt.total_wait += stint;
        let id = self.index.id(g);
        self.job_wait_us[self.index.job_dense(id.job)] += stint.as_micros();
        rt.state = RtState::Running;
        rt.gen += 1;
        rt.work_start = self.now + rt.pending_overhead;
        rt.overhead_paid += rt.pending_overhead;
        rt.pending_overhead = Dur::ZERO;
        let finish_at = rt.work_start + rt.remaining.exec_time(rate);
        let gen = rt.gen;
        let node = rt.node.idx();
        self.nodes[node].running.push(g);
        self.metrics.on_task_start(self.now);
        self.push_event(finish_at, Ev::Finish { g, gen });
    }

    /// Fill free slots on node `n` from the queue in planned-start order,
    /// with bounded lookahead (see [`LOOKAHEAD`]): only the first few
    /// waiting tasks are candidates, so a non-ready head stalls the node
    /// the way the paper's in-order queues do. A fully idle node falls back
    /// to scanning its whole queue — the deadlock-free escape.
    fn fill_node(&mut self, n: usize) {
        debug_assert!(
            self.nodes[n].queue.iter().all(|&g| self.tasks[g].state == RtState::Waiting),
            "node {n}: queue holds a non-waiting task (see the NodeRt invariant)",
        );
        while let Some(p) = self.next_dispatch(n) {
            let g = self.queue_remove(n, p);
            self.dispatch(g);
        }
    }

    /// The queue position [`Engine::fill_node`] dispatches from next on
    /// node `n`; `None` once the node is filled: down, out of free slots,
    /// or without a ready task in its window.
    fn next_dispatch(&self, n: usize) -> Option<usize> {
        let node = &self.nodes[n];
        if !self.alive[n] || node.running.len() >= self.cluster.nodes[n].slots {
            return None;
        }
        let window = if node.running.is_empty() { node.queue.len() } else { LOOKAHEAD };
        node.queue.iter().take(window).position(|&g| self.tasks[g].ready())
    }

    fn handle_finish(&mut self, g: usize, gen: u32) {
        {
            let rt = &self.tasks[g];
            if rt.state != RtState::Running || rt.gen != gen {
                return; // stale event from before a preemption
            }
        }
        let id = self.index.id(g);
        let node = self.tasks[g].node.idx();
        {
            let rt = &mut self.tasks[g];
            rt.state = RtState::Done;
            rt.executed += rt.remaining; // the final stint ran to the end
            rt.finish = self.now;
            rt.remaining = Mi::ZERO;
        }
        self.nodes[node].running.retain(|&x| x != g);
        self.metrics.on_task_finish(self.now);
        self.finished += 1;

        // Unblock dependents.
        let dense = self.index.job_dense(id.job);
        let job = &self.jobs[dense];
        let mut fill: Vec<usize> = vec![node];
        for &c in job.dag.children(id.index) {
            let cg = self.index.global(job.task_id(c));
            let crt = &mut self.tasks[cg];
            debug_assert!(crt.unfinished_parents > 0);
            crt.unfinished_parents -= 1;
            if crt.ready() && crt.state == RtState::Waiting {
                let n = crt.node.idx();
                fill.push(n);
                if self.epoch_enabled {
                    // The only field of a waiting snapshot that moves
                    // between its insertion and its removal.
                    let pos = self.nodes[n].position_of(&self.tasks, cg);
                    self.views[n].waiting[pos].ready = true;
                }
            }
        }

        // Job completion bookkeeping.
        let jl = &mut self.job_left[dense];
        *jl -= 1;
        if *jl == 0 {
            let m = job.num_tasks().max(1) as u64;
            self.metrics.on_job_finish(JobOutcome {
                arrival: job.arrival,
                finish: self.now,
                deadline: job.deadline,
                mean_task_wait: Dur::from_micros(self.job_wait_us[dense] / m),
                tasks: job.num_tasks(),
            });
        }

        fill.sort_unstable();
        fill.dedup();
        for n in fill {
            self.fill_node(n);
        }
    }

    fn snapshot(&self, g: usize) -> TaskSnapshot {
        let rt = &self.tasks[g];
        let id = self.index.id(g);
        let rate = self.rate_of(g);
        let truth_remaining = match rt.state {
            RtState::Running => {
                if self.now > rt.work_start {
                    rt.remaining - Mi::done_in(rate, self.now.since(rt.work_start))
                } else {
                    rt.remaining
                }
            }
            _ => rt.remaining,
        };
        let spec = self.job(id.job).task(id.index);
        // Re-estimation: policies never observe the sampled truth, only the
        // work a task has visibly consumed. The believed remaining work is
        // the a-priori estimate minus observed progress, i.e. truth
        // remaining shifted by (est − size). With exact estimates the shift
        // is 0.0 and `x + 0.0 == x`, so the idealized path is bit-identical
        // to the pre-uncertainty engine. A task that overruns its estimate
        // clamps to zero (Mi::new) and the Eq. 13 MIN_REMAINING floor takes
        // over: an overrun task is presumed nearly done, which keeps its
        // 1/t_rem urgency high instead of oscillating.
        let remaining_work =
            Mi::new(truth_remaining.get() + (spec.est_size.get() - spec.size.get()));
        let remaining_time = remaining_work.exec_time(rate);
        TaskSnapshot {
            id,
            remaining_work,
            remaining_time,
            waited: rt.total_wait,
            wait_since: (rt.state == RtState::Waiting).then_some(rt.wait_since),
            deadline: rt.deadline,
            running: rt.state == RtState::Running,
            ready: rt.ready(),
            demand: spec.demand,
            size: spec.est_size,
            preemptions: rt.preempt_count,
        }
    }

    /// Queue task `g` (already `Waiting`, node assigned) on node `n` at its
    /// planned-start position; the maintained view gains the task's
    /// snapshot at the same index.
    fn queue_insert(&mut self, n: usize, g: usize) {
        let pos = self.nodes[n].insert_by_planned_start(&self.tasks, g);
        if self.epoch_enabled {
            let snap = self.snapshot(g);
            self.views[n].waiting.insert(pos, snap);
        }
    }

    /// Merge `arrivals`, tasks newly `Waiting` on node `n` in ascending
    /// `(planned_start, g)` order, into the node's queue, which is already
    /// in that order; the maintained view keeps its snapshots and gains the
    /// arrivals' at the same indices.
    fn queue_merge(&mut self, n: usize, arrivals: &[usize]) {
        #[cfg(debug_assertions)]
        self.assert_queue_ordered(n);
        let old = std::mem::take(&mut self.nodes[n].queue);
        let old_view = match self.views.get_mut(n) {
            Some(v) => std::mem::take(&mut v.waiting),
            None => Vec::new(), // no view while the policy is a no-op
        };
        let key = |g: usize| NodeRt::queue_key(&self.tasks, g);
        let mut queue = Vec::with_capacity(old.len() + arrivals.len());
        let mut view = Vec::with_capacity(if self.epoch_enabled { queue.capacity() } else { 0 });
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < arrivals.len() {
            if j == arrivals.len() || (i < old.len() && key(old[i]) < key(arrivals[j])) {
                queue.push(old[i]);
                if self.epoch_enabled {
                    view.push(old_view[i]);
                }
                i += 1;
            } else {
                queue.push(arrivals[j]);
                if self.epoch_enabled {
                    view.push(self.snapshot(arrivals[j]));
                }
                j += 1;
            }
        }
        self.nodes[n].queue = queue;
        if self.epoch_enabled {
            self.views[n].waiting = view;
        }
    }

    /// Take the entry at position `pos` out of node `n`'s queue and out of
    /// the maintained view; returns the task.
    fn queue_remove(&mut self, n: usize, pos: usize) -> usize {
        if self.epoch_enabled {
            self.views[n].waiting.remove(pos);
        }
        self.nodes[n].queue.remove(pos)
    }

    /// Node `n`'s queue is in ascending `(planned_start, g)` order, the
    /// order `queue_merge` and `NodeRt::insert_by_planned_start` assume.
    #[cfg(any(test, debug_assertions))]
    fn assert_queue_ordered(&self, n: usize) {
        let key = |g: usize| NodeRt::queue_key(&self.tasks, g);
        let queue = &self.nodes[n].queue;
        assert!(
            queue.windows(2).all(|p| key(p[0]) < key(p[1])),
            "node {n}: queue out of (planned_start, g) order at {}",
            self.now
        );
    }

    /// Re-derive node `n`'s whole waiting view from its queue, after the
    /// node's rate changed under every waiting task's `t^rem`.
    fn rebuild_waiting_view(&mut self, n: usize) {
        if !self.epoch_enabled {
            return;
        }
        let mut waiting = std::mem::take(&mut self.views[n].waiting);
        waiting.clear();
        waiting.extend(self.nodes[n].queue.iter().map(|&g| self.snapshot(g)));
        self.views[n].waiting = waiting;
    }

    /// Bring the maintained views up to the epoch instant by rebuilding the
    /// few running entries, whose believed remaining work moves with the
    /// clock. Waiting entries are already current: they hold no clock, and
    /// their one mutable field, `ready`, is set when it changes.
    fn refresh_views(&self, views: &mut [NodeView]) {
        for (view, node) in views.iter_mut().zip(&self.nodes) {
            view.running.clear();
            view.running.extend(node.running.iter().map(|&g| self.snapshot(g)));
            debug_assert_eq!(view.waiting.len(), node.queue.len());
        }
    }

    /// The reference the maintained views are held against (tests and
    /// debug builds only): every node's views re-derived from scratch.
    #[cfg(any(test, debug_assertions))]
    fn build_views_into(&self, views: &mut Vec<NodeView>) {
        views.resize_with(self.nodes.len(), NodeView::default);
        for (n, view) in views.iter_mut().enumerate() {
            view.reset(self.cluster.nodes[n].id, self.cluster.nodes[n].slots);
            view.running.extend(self.nodes[n].running.iter().map(|&g| self.snapshot(g)));
            view.waiting.extend(
                self.nodes[n]
                    .queue
                    .iter()
                    .filter(|&&g| self.tasks[g].state == RtState::Waiting)
                    .map(|&g| self.snapshot(g)),
            );
        }
    }

    #[cfg(any(test, debug_assertions))]
    fn assert_views_match_rebuild(&self, views: &[NodeView]) {
        for n in 0..self.nodes.len() {
            self.assert_queue_ordered(n);
        }
        let mut rebuilt = Vec::new();
        self.build_views_into(&mut rebuilt);
        assert_eq!(
            views,
            &rebuilt[..],
            "maintained policy views diverged from a from-scratch rebuild at {}",
            self.now
        );
    }

    /// Differential self-check, compiled into tests and debug builds only:
    /// every queue is in its `(planned_start, g)` order, and the maintained
    /// policy views, refreshed to the current instant, must equal a
    /// from-scratch rebuild. `handle_epoch` holds every epoch to
    /// the same comparison; tests call this between steps, where no epoch
    /// falls.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn assert_views_current(&self) {
        if self.epoch_enabled {
            let mut views = self.views.clone();
            self.refresh_views(&mut views);
            self.assert_views_match_rebuild(&views);
        }
    }

    /// Kill the running tasks on node `n`, preserving their progress
    /// (checkpoints live on shared storage) and charging the usual
    /// recovery cost for the eventual resume. Returns the victims.
    fn kill_running(&mut self, n: usize, charge_recovery: bool) -> Vec<usize> {
        let victims: Vec<usize> = std::mem::take(&mut self.nodes[n].running);
        for &g in &victims {
            let rate = self.rate_of(g);
            let id = self.index.id(g);
            let recovery = self.job(id.job).task(id.index).recovery + SIGMA;
            let rt = &mut self.tasks[g];
            rt.account_progress(rate, self.now);
            rt.state = RtState::Waiting;
            rt.wait_since = self.now;
            if charge_recovery {
                rt.pending_overhead = recovery;
                rt.recovery_charges += 1;
            }
            rt.gen += 1; // invalidate the in-flight finish event
            self.queue_insert(n, g);
        }
        victims
    }

    fn handle_node_down(&mut self, n: usize, permanent: bool) {
        if !self.alive[n] {
            return;
        }
        self.alive[n] = false;
        if permanent {
            self.dead_forever[n] = true;
        }
        let victims = self.kill_running(n, true);
        let displaced = victims.len();
        if permanent {
            // Migrate the whole queue (victims included) round-robin over
            // the surviving nodes. With no survivors the tasks stay parked
            // and the run ends at the safety wall — a fully dead cluster
            // has no meaningful metrics anyway.
            let survivors: Vec<usize> =
                (0..self.cluster.len()).filter(|&k| self.alive[k]).collect();
            if !survivors.is_empty() {
                let orphans: Vec<usize> = std::mem::take(&mut self.nodes[n].queue);
                self.rebuild_waiting_view(n); // now empty
                let migrated = orphans.len(); // includes the killed victims
                for (i, g) in orphans.into_iter().enumerate() {
                    let dst = survivors[i % survivors.len()];
                    self.tasks[g].node = self.cluster.nodes[dst].id;
                    self.queue_insert(dst, g);
                }
                self.metrics.on_node_fault(migrated.max(displaced));
                for &dst in &survivors {
                    self.fill_node(dst);
                }
                return;
            }
        }
        self.metrics.on_node_fault(displaced);
    }

    fn handle_node_up(&mut self, n: usize) {
        if self.alive[n] {
            return;
        }
        self.alive[n] = true;
        self.fill_node(n);
    }

    fn handle_slowdown(&mut self, n: usize, factor: f64) {
        if !self.alive[n] {
            self.rate_factor[n] = factor;
            self.rebuild_waiting_view(n);
            return;
        }
        // Account progress at the OLD rate first, then switch. Nothing is
        // evicted — the machine just changed speed — so no recovery charge.
        let displaced = {
            let victims = self.kill_running(n, false);
            victims.len()
        };
        self.rate_factor[n] = factor;
        self.rebuild_waiting_view(n);
        if displaced > 0 {
            self.metrics.fault_rescheduled += displaced as u64;
        }
        self.fill_node(n);
    }

    fn handle_epoch(&mut self, policy: &mut dyn PreemptPolicy) {
        if self.finished < self.injected || self.pending_injections > 0 {
            // Work remains; run the policy and re-arm.
            let mut views = std::mem::take(&mut self.views);
            self.refresh_views(&mut views);
            #[cfg(any(test, debug_assertions))]
            self.assert_views_match_rebuild(&views);
            let actions: Vec<(usize, Vec<PreemptAction>)> = {
                let world = WorldCtx { jobs: &self.jobs, now: self.now, epoch: self.cfg.epoch };
                policy.begin_epoch(self.now, &views, &world);
                views
                    .iter()
                    .enumerate()
                    .map(|(n, v)| (n, policy.decide(self.now, v, &world)))
                    .collect()
            };
            self.views = views;
            let checkpointing = policy.checkpointing();
            for (n, acts) in actions {
                if acts.is_empty() {
                    // Every event handler leaves the nodes it touched
                    // filled, so only a node that took actions needs it.
                    debug_assert_eq!(self.next_dispatch(n), None, "node {n} unfilled at an epoch");
                    continue;
                }
                for act in acts {
                    self.apply_action(n, act, checkpointing);
                }
                self.fill_node(n);
            }
            self.push_event(self.now + self.cfg.epoch, Ev::Epoch);
        } else {
            // When everything injected has finished and no injections are
            // pending, dropping the epoch chain ends the simulation (a
            // later batch re-arms it via `add_batch`).
            self.epoch_live = false;
        }
    }

    fn apply_action(&mut self, n: usize, act: PreemptAction, checkpointing: bool) {
        let eg = self.index.global(act.evict);
        let ag = self.index.global(act.admit);
        // Validate the action against current state; policies act on an
        // epoch-start snapshot, and earlier actions in the same epoch can
        // invalidate later ones.
        let evict_ok = self.tasks[eg].state == RtState::Running && self.tasks[eg].node.idx() == n;
        let admit_ok = self.tasks[ag].state == RtState::Waiting && self.tasks[ag].node.idx() == n;
        if !evict_ok || !admit_ok {
            return;
        }
        // A task is only evictable once its current stint has produced
        // more useful work than two context switches cost; without this,
        // an aggressive policy can evict a freshly-(re)dispatched task
        // every epoch and the victim's net progress goes negative — a
        // slow-motion livelock no real scheduler exhibits (none evicts a
        // container it *just* started).
        {
            let vid = self.index.id(eg);
            let overhead = self.job(vid.job).task(vid.index).recovery + SIGMA;
            let min_run = self.tasks[eg].work_start + overhead * 2;
            if self.now < min_run {
                return;
            }
        }
        let admit_ready = self.tasks[ag].ready();
        if !admit_ready && !checkpointing {
            // Dependency-inconsistent dispatch under restart-from-scratch
            // semantics: refuse outright. Evicting here would erase the
            // victim's progress, and when the unfinished precedent *is*
            // the victim itself, the child would evict its own parent
            // every epoch forever — a livelock, not a slowdown.
            self.metrics.on_refusal();
            return;
        }

        // --- Suspend the victim. ---
        let rate = self.rate_of(eg);
        let id = self.index.id(eg);
        let recovery = self.job(id.job).task(id.index).recovery + SIGMA;
        {
            let rt = &mut self.tasks[eg];
            rt.account_progress(rate, self.now);
            if !checkpointing {
                // No checkpoint mechanism: restart from scratch (SRPT).
                // All retained progress (this stint's and any earlier
                // checkpointed remainder) is discarded.
                let size = self.jobs[self.index.job_dense(id.job)].task(id.index).size;
                rt.lost += size - rt.remaining;
                rt.remaining = size;
            }
            rt.state = RtState::Waiting;
            rt.wait_since = self.now;
            rt.pending_overhead = recovery;
            rt.preempt_count += 1;
            rt.recovery_charges += 1;
            rt.gen += 1; // invalidate the in-flight finish event
        }
        self.nodes[n].running.retain(|&x| x != eg);
        // Re-queue at the position its planned start dictates.
        self.queue_insert(n, eg);
        self.metrics.on_preemption(recovery);

        // --- Dispatch the preempting task. ---
        if !admit_ready {
            // The policy evicted for a task whose precedents are
            // unfinished (checkpointing policies only — see above). In the
            // real system the launched task fails on missing inputs and
            // the slot refills from the queue; here the eviction has been
            // paid, the disorder is recorded, and the epoch's queue-fill
            // pass hands the slot to the best ready task (often the victim
            // itself, which resumes from its checkpoint).
            self.metrics.on_disorder();
            return;
        }
        let p = self.nodes[n].position_of(&self.tasks, ag);
        self.queue_remove(n, p);
        self.dispatch(ag);
    }

    /// Current simulation time (for tests).
    pub fn now(&self) -> Time {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::policy::NoPreempt;
    use dsp_cluster::{uniform, NodeId};
    use dsp_dag::{Dag, JobClass, JobId, TaskId, TaskSpec};

    /// One job, `sizes.len()` tasks with the given MI sizes and edges.
    fn mk_jobs(sizes: &[f64], edges: &[(u32, u32)], deadline: Time) -> Vec<Job> {
        let mut dag = Dag::new(sizes.len());
        for &(u, v) in edges {
            dag.add_edge(u, v).unwrap();
        }
        vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            deadline,
            sizes.iter().map(|&s| TaskSpec::sized(s)).collect(),
            dag,
        )]
    }

    fn all_to_node0(jobs: &[Job]) -> Schedule {
        let mut s = Schedule::new();
        for job in jobs {
            for v in 0..job.num_tasks() as u32 {
                s.assign(job.task_id(v), NodeId(0), Time::from_micros(v as u64));
            }
        }
        s
    }

    /// Fixture: an engine over fresh copies of `jobs`/`cluster` with the
    /// default config — the boilerplate every test repeats.
    fn rig(jobs: &[Job], cluster: &ClusterSpec) -> Engine {
        rig_with(jobs, cluster, EngineConfig::default())
    }

    /// [`rig`] with a custom engine config.
    fn rig_with(jobs: &[Job], cluster: &ClusterSpec, cfg: EngineConfig) -> Engine {
        Engine::new(jobs.to_vec(), cluster.clone(), cfg)
    }

    #[test]
    fn single_task_runs_for_exec_time() {
        // 1000 MI at 1000 MIPS (uniform rate = 0.5·1000 + 0.5·1000) = 1 s.
        let jobs = mk_jobs(&[1000.0], &[], Time::from_secs(100));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.tasks_completed, 1);
        assert_eq!(m.makespan(), Dur::from_secs(1));
        assert_eq!(m.jobs_completed(), 1);
        assert!(m.jobs[0].met_deadline());
    }

    #[test]
    fn slots_serialize_execution() {
        // Two 1 s tasks, one slot: makespan 2 s. Two slots: 1 s.
        let jobs = mk_jobs(&[1000.0, 1000.0], &[], Time::from_secs(100));
        for (slots, want) in [(1usize, 2u64), (2, 1)] {
            let cluster = uniform(1, 1000.0, slots);
            let mut e = rig(&jobs, &cluster);
            e.add_batch(Time::ZERO, all_to_node0(&jobs));
            let m = e.run(&mut NoPreempt);
            assert_eq!(m.makespan(), Dur::from_secs(want), "slots={slots}");
        }
    }

    #[test]
    fn dependencies_serialize_even_against_queue_order() {
        // Child scheduled with an *earlier* planned start than its parent;
        // the engine must still run the parent first (skip non-ready).
        let jobs = mk_jobs(&[1000.0, 1000.0], &[(0, 1)], Time::from_secs(100));
        let cluster = uniform(1, 1000.0, 2);
        let mut s = Schedule::new();
        s.assign(TaskId::new(0, 1), NodeId(0), Time::ZERO); // child first
        s.assign(TaskId::new(0, 0), NodeId(0), Time::from_secs(1));
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, s);
        let m = e.run(&mut NoPreempt);
        // Serial despite 2 slots: 2 s, and no disorder (queue skipping is
        // work-conserving reordering, not a dependency violation).
        assert_eq!(m.makespan(), Dur::from_secs(2));
        assert_eq!(m.disorders, 0);
        assert_eq!(m.tasks_completed, 2);
    }

    #[test]
    fn parallel_branches_use_both_nodes() {
        // Diamond on two 1-slot nodes: 0 → {1,2} → 3, all 1 s.
        let jobs = mk_jobs(
            &[1000.0, 1000.0, 1000.0, 1000.0],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            Time::from_secs(100),
        );
        let cluster = uniform(2, 1000.0, 1);
        let mut s = Schedule::new();
        s.assign(TaskId::new(0, 0), NodeId(0), Time::ZERO);
        s.assign(TaskId::new(0, 1), NodeId(0), Time::from_secs(1));
        s.assign(TaskId::new(0, 2), NodeId(1), Time::from_secs(1));
        s.assign(TaskId::new(0, 3), NodeId(0), Time::from_secs(2));
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, s);
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.makespan(), Dur::from_secs(3));
    }

    #[test]
    fn waiting_time_is_recorded() {
        let jobs = mk_jobs(&[1000.0, 1000.0], &[], Time::from_secs(100));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        let m = e.run(&mut NoPreempt);
        // Task 0 waits 0 s, task 1 waits 1 s → job mean 0.5 s.
        assert_eq!(m.avg_job_waiting(), Dur::from_millis(500));
    }

    #[test]
    fn snapshots_carry_closed_stints_and_the_open_one() {
        // Two 1 s tasks, one slot: task 1 queues at 0 s behind task 0 and
        // is dispatched at 1 s.
        let jobs = mk_jobs(&[1000.0, 1000.0], &[], Time::from_secs(100));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        e.step_until(&mut NoPreempt, Time::from_millis(500));
        let waiter = e.snapshot(1);
        assert_eq!((waiter.waited, waiter.wait_since), (Dur::ZERO, Some(Time::ZERO)));
        assert_eq!(waiter.waiting(Time::from_millis(700)), Dur::from_millis(700));
        assert_eq!(e.snapshot(0).wait_since, None);
        e.step_until(&mut NoPreempt, Time::from_millis(1_500));
        // Running now: t^w is the closed 1 s stint, whatever the instant.
        let runner = e.snapshot(1);
        assert_eq!((runner.waited, runner.wait_since), (Dur::from_secs(1), None));
        assert_eq!(runner.waiting(Time::from_secs(9)), Dur::from_secs(1));
    }

    #[test]
    fn late_batch_injection() {
        let jobs = mk_jobs(&[1000.0], &[], Time::from_secs(100));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::from_secs(5), all_to_node0(&jobs));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.end_time, Time::from_secs(6));
        // Makespan window starts at first *start*, not at t=0.
        assert_eq!(m.makespan(), Dur::from_secs(1));
    }

    /// A test policy that always preempts the running task in favour of the
    /// first waiting task.
    struct AlwaysPreempt {
        checkpoint: bool,
    }
    impl PreemptPolicy for AlwaysPreempt {
        fn name(&self) -> &str {
            "always"
        }
        fn decide(
            &mut self,
            _now: Time,
            view: &NodeView,
            _world: &WorldCtx<'_>,
        ) -> Vec<PreemptAction> {
            match (view.running.first(), view.waiting.first()) {
                (Some(r), Some(w)) => vec![PreemptAction { evict: r.id, admit: w.id }],
                _ => vec![],
            }
        }
        fn checkpointing(&self) -> bool {
            self.checkpoint
        }
    }

    #[test]
    fn preemption_counts_and_overhead() {
        // Two 10 s tasks, 1 slot, epoch 5 s (comfortably above the 1.05 s
        // recovery cost so progress dominates churn), always-preempt:
        // context switches accumulate, both tasks finish, and makespan
        // exceeds the no-preemption 20 s because of the overhead.
        let jobs = mk_jobs(&[10_000.0, 10_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig_with(
            &jobs,
            &cluster,
            EngineConfig { epoch: Dur::from_secs(5), ..EngineConfig::default() },
        );
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        let m = e.run(&mut AlwaysPreempt { checkpoint: true });
        assert_eq!(m.tasks_completed, 2);
        assert!(m.preemptions >= 2, "preemptions = {}", m.preemptions);
        assert!(m.makespan() > Dur::from_secs(20));
        assert_eq!(m.switch_overhead, Dur::from_millis(1050) * m.preemptions);
    }

    /// Preempts exactly once, then stays quiet.
    struct OncePreempt {
        fired: bool,
        checkpoint: bool,
    }
    impl PreemptPolicy for OncePreempt {
        fn name(&self) -> &str {
            "once"
        }
        fn decide(
            &mut self,
            _now: Time,
            view: &NodeView,
            _world: &WorldCtx<'_>,
        ) -> Vec<PreemptAction> {
            if self.fired {
                return vec![];
            }
            match (view.running.first(), view.waiting.first()) {
                (Some(r), Some(w)) => {
                    self.fired = true;
                    vec![PreemptAction { evict: r.id, admit: w.id }]
                }
                _ => vec![],
            }
        }
        fn checkpointing(&self) -> bool {
            self.checkpoint
        }
    }

    #[test]
    fn no_checkpoint_restarts_lose_more_work() {
        // Two 10 s tasks, one slot, one preemption at the first epoch
        // (t = 5 s, past the minimum-stint eviction guard). With
        // checkpointing the evicted task resumes its remaining 5 s;
        // without, it restarts all 10 s — five extra seconds of makespan.
        let jobs = mk_jobs(&[10_000.0, 10_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(1, 1000.0, 1);
        let run = |checkpoint: bool| {
            let mut e = rig_with(
                &jobs,
                &cluster,
                EngineConfig { epoch: Dur::from_secs(5), ..EngineConfig::default() },
            );
            e.add_batch(Time::ZERO, all_to_node0(&jobs));
            e.run(&mut OncePreempt { fired: false, checkpoint })
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.tasks_completed, 2);
        assert_eq!(without.tasks_completed, 2);
        assert_eq!(with.preemptions, 1);
        assert_eq!(
            without.makespan().saturating_sub(with.makespan()),
            Dur::from_secs(5),
            "restart loses exactly the 5 s of pre-eviction progress"
        );
    }

    /// Policy that tries to admit a dependent task over its own precedent.
    struct Disorderly;
    impl PreemptPolicy for Disorderly {
        fn name(&self) -> &str {
            "disorderly"
        }
        fn decide(
            &mut self,
            _now: Time,
            view: &NodeView,
            world: &WorldCtx<'_>,
        ) -> Vec<PreemptAction> {
            // Admit a waiting task that depends on the running task.
            for r in &view.running {
                for w in &view.waiting {
                    if world.depends_on(w.id, r.id) {
                        return vec![PreemptAction { evict: r.id, admit: w.id }];
                    }
                }
            }
            vec![]
        }
    }

    #[test]
    fn dependency_violating_dispatch_counts_disorder() {
        // The first epoch (t = 1 s) falls while the 5 s parent runs.
        let jobs = mk_jobs(&[5_000.0, 1_000.0], &[(0, 1)], Time::from_secs(10_000));
        let cluster = uniform(1, 1000.0, 1);
        let cfg = EngineConfig { epoch: Dur::from_secs(1), ..EngineConfig::default() };
        let mut e = rig_with(&jobs, &cluster, cfg);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        let m = e.run(&mut Disorderly);
        assert!(m.disorders > 0, "disorders = {}", m.disorders);
        assert_eq!(m.tasks_completed, 2); // progress is still guaranteed
    }

    /// Records the epoch every decision was handed.
    struct EpochProbe(Vec<Dur>);
    impl PreemptPolicy for EpochProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn decide(
            &mut self,
            _now: Time,
            _view: &NodeView,
            world: &WorldCtx<'_>,
        ) -> Vec<PreemptAction> {
            self.0.push(world.epoch);
            vec![]
        }
    }

    #[test]
    fn policies_decide_at_the_engine_epoch() {
        let jobs = mk_jobs(&[10_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(1, 1000.0, 1);
        for epoch in [Dur::from_secs(1), Dur::from_secs(5)] {
            let mut e =
                rig_with(&jobs, &cluster, EngineConfig { epoch, ..EngineConfig::default() });
            e.add_batch(Time::ZERO, all_to_node0(&jobs));
            let mut probe = EpochProbe(Vec::new());
            e.run(&mut probe);
            assert!(!probe.0.is_empty() && probe.0.iter().all(|&d| d == epoch), "{:?}", probe.0);
        }
    }

    #[test]
    fn heterogeneous_rates_change_exec_time() {
        // Same task on a node twice as fast finishes twice as quickly.
        let jobs = mk_jobs(&[2000.0], &[], Time::from_secs(100));
        let mut cluster = uniform(2, 1000.0, 1);
        cluster.nodes[1].s_cpu = 2000.0;
        cluster.nodes[1].s_mem = 2000.0;
        for (node, want_secs) in [(0u32, 2u64), (1, 1)] {
            let mut s = Schedule::new();
            s.assign(TaskId::new(0, 0), NodeId(node), Time::ZERO);
            let mut e = rig(&jobs, &cluster);
            e.add_batch(Time::ZERO, s);
            let m = e.run(&mut NoPreempt);
            assert_eq!(m.makespan(), Dur::from_secs(want_secs), "node {node}");
        }
    }

    #[test]
    fn deadline_outcome_recorded() {
        let jobs = mk_jobs(&[2000.0], &[], Time::from_millis(500));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.jobs_completed(), 1);
        assert!(!m.jobs[0].met_deadline()); // 2 s exec vs 0.5 s deadline
        assert_eq!(m.deadline_hit_rate(), 0.0);
    }

    #[test]
    fn transient_crash_delays_but_completes() {
        // One 10 s task; the node crashes at t=2 and returns at t=5. The
        // task keeps its checkpointed 2 s of progress, pays 1.05 s of
        // recovery when redispatched at t=5, and finishes at
        // 5 + 1.05 + 8 = 14.05 s.
        let jobs = mk_jobs(&[10_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        e.add_faults(FaultPlan::none().crash(NodeId(0), Time::from_secs(2), Time::from_secs(5)));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.tasks_completed, 1);
        assert_eq!(m.node_failures, 1);
        assert_eq!(m.end_time, Time::from_millis(14_050));
    }

    #[test]
    fn permanent_crash_migrates_work() {
        // Two tasks queued on node 0; node 0 dies at t=1; both must finish
        // on node 1.
        let jobs = mk_jobs(&[5_000.0, 5_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(2, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        e.add_faults(FaultPlan::none().kill(NodeId(0), Time::from_secs(1)));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.tasks_completed, 2);
        assert_eq!(m.jobs_completed(), 1);
        assert!(m.fault_rescheduled >= 2);
        // Serial on the single survivor: ≥ 1 (pre-crash) + 4 + 5 (+recovery).
        assert!(m.end_time >= Time::from_secs(10));
    }

    #[test]
    fn straggler_slows_execution_without_recovery_charge() {
        // A 10 s task; at t=5 the node drops to half speed: 5 s done, the
        // remaining 5 s of work now takes 10 s → finish at t=15, and no
        // context switch is charged.
        let jobs = mk_jobs(&[10_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        e.add_faults(FaultPlan::none().straggle(NodeId(0), Time::from_secs(5), 0.5));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.tasks_completed, 1);
        assert_eq!(m.end_time, Time::from_secs(15));
        assert_eq!(m.preemptions, 0);
        assert_eq!(m.switch_overhead, Dur::ZERO);
    }

    #[test]
    fn recovered_straggler_returns_to_full_speed() {
        // Half speed during [2, 6): 2 s done at full, 2 s of work-time at
        // half speed (covers 2 s of work), back to full for the remaining
        // 6 s → finish at t = 12.
        let jobs = mk_jobs(&[10_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        e.add_faults(FaultPlan::none().straggle(NodeId(0), Time::from_secs(2), 0.5).straggle(
            NodeId(0),
            Time::from_secs(6),
            1.0,
        ));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.end_time, Time::from_secs(12));
    }

    #[test]
    fn crash_during_idle_is_harmless() {
        let jobs = mk_jobs(&[1_000.0], &[], Time::from_secs(10_000));
        let cluster = uniform(2, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        e.add_batch(Time::ZERO, all_to_node0(&jobs));
        // Node 1 (never used) crashes and recovers; node 0 finishes its
        // task untouched.
        e.add_faults(FaultPlan::none().crash(
            NodeId(1),
            Time::from_millis(100),
            Time::from_millis(200),
        ));
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.tasks_completed, 1);
        assert_eq!(m.end_time, Time::from_secs(1));
    }

    #[test]
    fn empty_schedule_terminates() {
        let jobs = mk_jobs(&[1000.0], &[], Time::from_secs(1));
        let cluster = uniform(1, 1000.0, 1);
        let mut e = rig(&jobs, &cluster);
        let m = e.run(&mut NoPreempt);
        assert_eq!(m.tasks_completed, 0);
        assert_eq!(m.makespan(), Dur::ZERO);
    }
}
