//! The placement router: assigns submit batches to shards, aggregates
//! the per-shard read views into one federated reply, and coordinates
//! the two-phase federated drain (DESIGN.md §10.7).
//!
//! **Placement.** Shard `i` of `N` admits jobs on the strided id lane
//! `i, i+N, i+2N, …`, so `id % N` names the owning shard — the
//! "deterministic hash by JobId" baseline is realized structurally: the
//! router's round-robin batch cursor decides the lane, and the lane *is*
//! the hash. Two adaptive policies ride on top: `least-loaded` (argmin
//! of published `pending_tasks`, ties to the lowest index) and
//! `deadline` (the admission layer's feasibility pre-check run against
//! each shard's sub-cluster and published boundary; infeasible shards
//! are skipped, the least-loaded feasible one wins).
//!
//! **Federated reads.** With one shard, reads pass through untouched —
//! byte-identical to the pre-federation service. With `N > 1`, each
//! reply aggregates the per-shard [`StateSnapshot`]s: `state_version`
//! is the **max** of the per-shard versions and a `shard_versions`
//! array carries the whole vector. Per-shard versions are monotone
//! (each cell forbids regress), and max/min/sum of component-wise
//! monotone vectors are monotone, so a connection still never sees
//! `state_version`, `now_us`, or `periods_elapsed` go backwards even
//! though the N cells are read without any cross-shard lock.
//!
//! **Two-phase drain.** The coordinator first flips the federation-wide
//! `draining` latch and quiesces every shard (stop intake, ack), then
//! asks each shard to run dry and merges the per-shard snapshots into
//! one artifact over the full cluster — node ids are mapped back from
//! shard-local to global, so `dsp verify` audits the merged history
//! against the real inventory. A submit racing the drain is rerouted
//! around quiesced shards and, once every shard refuses, shed with the
//! pre-federation `draining` refusal — never dropped (see
//! [`Router::reroute_submit`]).

use crate::admission::{check_feasible, AdmitError};
use crate::codec::Snapshot;
use crate::driver::JobRequest;
use crate::reactor::ReplyHandle;
use crate::server::{draining_response, Command, Dispatch, Shared, Target};
use crate::state::{SnapshotCell, StateSnapshot};
use crate::wire;
use dsp_cluster::{ClusterSpec, NodeId};
use dsp_dag::JobId;
use dsp_metrics::RunMetrics;
use dsp_sim::{ExecHistory, Schedule};
use dsp_units::Time;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// How the router assigns a submit batch to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Deterministic baseline: batches round-robin across shards in
    /// arrival order; with the strided id lanes this *is* hash-by-JobId
    /// (`id % N` = owning shard). Independent of load, deterministic
    /// across restarts for the same submission order.
    Hash,
    /// Argmin of the shards' published `pending_tasks`; ties go to the
    /// lowest shard index.
    LeastLoaded,
    /// Deadline-feasibility-scored: run the admission pre-check against
    /// each shard's sub-cluster and published next boundary, then pick
    /// the least-loaded feasible shard (falling back to plain
    /// least-loaded when none passes or the batch carries no deadline).
    Deadline,
}

impl RoutePolicy {
    /// Parse a `--route` CLI value.
    pub fn parse(s: &str) -> Option<RoutePolicy> {
        match s {
            "hash" => Some(RoutePolicy::Hash),
            "least-loaded" => Some(RoutePolicy::LeastLoaded),
            "deadline" => Some(RoutePolicy::Deadline),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::Hash => "hash",
            RoutePolicy::LeastLoaded => "least-loaded",
            RoutePolicy::Deadline => "deadline",
        }
    }
}

/// A shard as the router sees it: its command queue, its read cell, and
/// its sub-cluster (for the deadline policy's feasibility scoring).
pub(crate) struct ShardHandle {
    pub(crate) commands: SyncSender<Command>,
    pub(crate) cell: Arc<SnapshotCell>,
    pub(crate) cluster: ClusterSpec,
}

/// The federation's routing fabric. Shared read-only by every front-end
/// and driver-owner thread; the only interior mutability is the batch
/// cursor and the drain latch.
pub(crate) struct Router {
    shards: Vec<ShardHandle>,
    /// Shard 0's read cell, captured at construction (a router always
    /// has a first shard).
    primary: Arc<SnapshotCell>,
    coordinator: SyncSender<Command>,
    policy: RoutePolicy,
    /// Round-robin cursor for the hash policy: one step per submit
    /// batch, so a fixed submission order yields a fixed assignment.
    cursor: AtomicU64,
    /// Federation-wide intake latch, set by the coordinator *before* any
    /// shard quiesces: a reroute that exhausts the ring while this is up
    /// reports the pre-federation `draining` refusal.
    draining: AtomicBool,
    /// The full, unsplit inventory (merged artifacts report this).
    cluster: ClusterSpec,
    /// Global node-id offset per shard ([`ClusterSpec::split_offsets`]).
    offsets: Vec<u32>,
}

fn mask_bit(index: usize) -> u64 {
    1u64.checked_shl(index as u32).unwrap_or(0)
}

impl Router {
    pub(crate) fn new(
        shards: Vec<ShardHandle>,
        coordinator: SyncSender<Command>,
        policy: RoutePolicy,
        cluster: ClusterSpec,
        offsets: Vec<u32>,
    ) -> std::io::Result<Router> {
        debug_assert_eq!(shards.len(), offsets.len());
        let Some(first) = shards.first() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a federation needs at least one shard",
            ));
        };
        Ok(Router {
            primary: Arc::clone(&first.cell),
            shards,
            coordinator,
            policy,
            cursor: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            cluster,
            offsets,
        })
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard 0's snapshot cell ([`crate::server::ServerHandle::reads`]).
    pub(crate) fn primary_cell(&self) -> &SnapshotCell {
        &self.primary
    }

    pub(crate) fn is_draining(&self) -> bool {
        // ordering: SeqCst — the drain latch pairs with nothing; it is a
        // single flag set once by the coordinator and polled on the
        // reroute path, where staleness only changes which stable
        // refusal token a raced submit receives.
        self.draining.load(Ordering::SeqCst)
    }

    /// Resolve a write to its destination exactly once: a drain goes to
    /// the coordinator, a submit to the policy-picked shard.
    pub(crate) fn plan(&self, request: wire::WriteRequest, reply: ReplyHandle) -> Dispatch {
        let target = match &request {
            wire::WriteRequest::Drain => Target::Coordinator,
            wire::WriteRequest::Submit(jobs) => Target::Shard(self.pick_shard(jobs)),
        };
        Dispatch { target, command: Command::Write(request, reply, 0) }
    }

    fn queue_for(&self, target: Target) -> Option<&SyncSender<Command>> {
        match target {
            Target::Shard(index) => self.shards.get(index).map(|s| &s.commands),
            Target::Coordinator => Some(&self.coordinator),
        }
    }

    /// Non-blocking send; a `Full` refusal hands the dispatch back
    /// intact so the reactor can park and retry it against the *same*
    /// target — backpressure never re-routes a request.
    pub(crate) fn try_send(&self, dispatch: Dispatch) -> Result<(), TrySendError<Dispatch>> {
        let Dispatch { target, command } = dispatch;
        let Some(queue) = self.queue_for(target) else {
            return Err(TrySendError::Disconnected(Dispatch { target, command }));
        };
        queue.try_send(command).map_err(|e| match e {
            TrySendError::Full(command) => TrySendError::Full(Dispatch { target, command }),
            TrySendError::Disconnected(command) => {
                TrySendError::Disconnected(Dispatch { target, command })
            }
        })
    }

    /// Broadcast a clock tick to every shard. False once every shard
    /// queue is gone (the ticker exits then).
    pub(crate) fn tick_all(&self, target: Time) -> bool {
        let mut alive = false;
        for shard in &self.shards {
            match shard.commands.try_send(Command::Tick(target)) {
                // A full queue means that owner is busy; skipping its
                // tick is fine — the next broadcast re-targets.
                Ok(()) | Err(TrySendError::Full(_)) => alive = true,
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
        alive
    }

    /// Pick the shard a submit batch lands on (the batch is the
    /// atomicity unit: `submit` is all-or-nothing, so it must land on
    /// one driver whole).
    fn pick_shard(&self, jobs: &[JobRequest]) -> usize {
        let n = self.shards.len();
        if n <= 1 {
            return 0;
        }
        match self.policy {
            RoutePolicy::Hash => {
                // ordering: Relaxed — a pure round-robin counter; no
                // other data is published through it, and any
                // interleaving of concurrent submitters is an equally
                // valid arrival order.
                (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % n
            }
            RoutePolicy::LeastLoaded => self.least_loaded(u64::MAX),
            RoutePolicy::Deadline => self.deadline_pick(jobs),
        }
    }

    /// Argmin of published `pending_tasks` over the shards whose bit is
    /// set in `allowed`; ties to the lowest index. `u64::MAX` = all.
    fn least_loaded(&self, allowed: u64) -> usize {
        let mut best = 0usize;
        let mut best_load = usize::MAX;
        for (i, shard) in self.shards.iter().enumerate() {
            if allowed & mask_bit(i) == 0 {
                continue;
            }
            let load = shard.cell.load().pending_tasks;
            if load < best_load {
                best = i;
                best_load = load;
            }
        }
        best
    }

    /// Deadline policy: score each shard with the admission layer's own
    /// feasibility pre-check (same [`check_feasible`] the driver runs at
    /// admission, against the shard's sub-cluster and published next
    /// boundary), then pick the least-loaded feasible shard.
    fn deadline_pick(&self, jobs: &[JobRequest]) -> usize {
        if jobs.iter().all(|j| j.deadline.is_none()) {
            return self.least_loaded(u64::MAX);
        }
        let mut feasible = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let view = shard.cell.load();
            let mut batch = Vec::with_capacity(jobs.len());
            let mut valid = true;
            for (k, request) in jobs.iter().enumerate() {
                // Dummy ids: only deadlines, sizes, and edges matter to
                // the pre-check. A malformed request is "feasible
                // anywhere" — every driver rejects it with the same
                // `invalid` reply, so placement cannot change the bytes.
                match request.clone().into_job(JobId(k as u32), view.now) {
                    Ok(job) => batch.push(job),
                    Err(_) => {
                        valid = false;
                        break;
                    }
                }
            }
            if !valid || check_feasible(&batch, &shard.cluster, view.next_boundary).is_ok() {
                feasible |= mask_bit(i);
            }
        }
        if feasible == 0 {
            self.least_loaded(u64::MAX)
        } else {
            self.least_loaded(feasible)
        }
    }

    /// The drain-vs-submit race, resolved (DESIGN.md §10.7): shard
    /// `from` found itself quiesced with this submit already queued.
    /// Forward the batch to the lowest-indexed shard not yet tried;
    /// every forward carries the visited bitmask, so the ring is walked
    /// at most once. When every shard has refused (or its queue is
    /// unreachable), the batch is shed with a stable token: `draining`
    /// (the exact pre-federation refusal) when the whole federation is
    /// draining, `quiesced` when only part of the ring is closed.
    pub(crate) fn reroute_submit(
        &self,
        from: usize,
        jobs: Vec<JobRequest>,
        reply: ReplyHandle,
        tried: u64,
    ) {
        let tried = tried | mask_bit(from);
        let mut batch = Some((jobs, reply));
        for (i, shard) in self.shards.iter().enumerate() {
            if tried & mask_bit(i) != 0 {
                continue;
            }
            let Some((jobs, reply)) = batch.take() else { return };
            let command = Command::Write(wire::WriteRequest::Submit(jobs), reply, tried);
            match shard.commands.try_send(command) {
                Ok(()) => return,
                // Full counts as tried: the reroute path must never
                // block a driver-owner thread on a sibling's queue.
                Err(TrySendError::Full(command) | TrySendError::Disconnected(command)) => {
                    if let Command::Write(wire::WriteRequest::Submit(jobs), reply, _) = command {
                        batch = Some((jobs, reply));
                    }
                }
            }
        }
        if let Some((_jobs, reply)) = batch {
            reply.deliver(if self.is_draining() {
                wire::Response::refusal("draining", &AdmitError::Draining.to_string())
            } else {
                wire::Response::refusal(
                    wire::REASON_QUIESCED,
                    "every shard is quiesced or saturated; no shard can admit this batch",
                )
            });
        }
    }

    /// Quiesce one shard and wait for the ack (phase one, for a single
    /// shard — the [`crate::server::ServerHandle::quiesce_shard`] hook).
    pub(crate) fn quiesce_shard(&self, index: usize) -> bool {
        let Some(shard) = self.shards.get(index) else {
            return false;
        };
        let (ack_tx, ack_rx) = sync_channel(1);
        shard.commands.send(Command::Quiesce(ack_tx)).is_ok() && ack_rx.recv().is_ok()
    }

    /// The two-phase federated drain, run on the coordinator thread.
    /// Phase one: latch `draining`, then quiesce shard by shard (each
    /// ack means that shard's refusal is published). Phase two: ask
    /// every shard to run dry, collect the per-shard snapshots in shard
    /// order, merge. Idempotent: a second `drain` replays both phases
    /// against already-drained shards and rebuilds the same artifact.
    pub(crate) fn drain_all(&self) -> wire::Response {
        // ordering: SeqCst — see `is_draining`; latched before any shard
        // quiesces so a raced submit that exhausts the reroute ring gets
        // the pre-federation `draining` refusal, not `quiesced`.
        self.draining.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            let (ack_tx, ack_rx) = sync_channel(1);
            if shard.commands.send(Command::Quiesce(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (out_tx, out_rx) = sync_channel(1);
            match shard.commands.send(Command::DrainShard(out_tx)) {
                Ok(()) => pending.push(Some(out_rx)),
                Err(_) => pending.push(None),
            }
        }
        let mut parts = Vec::with_capacity(self.shards.len());
        for out_rx in pending.into_iter().flatten() {
            if let Ok(snapshot) = out_rx.recv() {
                parts.push(*snapshot);
            }
        }
        if parts.len() != self.shards.len() {
            // A shard owner exited before draining (shutdown race): shut
            // down, but do not fabricate a partial artifact.
            return wire::Response {
                body: wire::error_response("draining", "a shard exited before its drain finished"),
                shutdown: true,
            };
        }
        wire::drain_reply(&self.merge_snapshots(parts))
    }

    /// Merge per-shard snapshots (in shard order) into one artifact over
    /// the full cluster: node ids map back from shard-local to global
    /// via the split offsets, jobs merge by ascending id, and schedule/
    /// history rows sort by (job, task) with the stable sort preserving
    /// each shard's intra-task segment order. A single part passes
    /// through untouched — the 1-shard artifact is byte-identical to the
    /// pre-federation drain.
    pub(crate) fn merge_snapshots(&self, mut parts: Vec<Snapshot>) -> Snapshot {
        if parts.len() == 1 {
            if let Some(single) = parts.pop() {
                return single;
            }
        }
        let sigma = parts.first().map(|p| p.history.sigma).unwrap_or_default();
        let mut jobs = Vec::new();
        let mut schedule = Schedule::new();
        let mut history = ExecHistory { sigma, tasks: Vec::new() };
        let mut metrics = RunMetrics::default();
        for (part, offset) in parts.into_iter().zip(self.offsets.iter().copied()) {
            jobs.extend(part.jobs);
            for mut a in part.schedule.assignments {
                a.node = NodeId(a.node.0 + offset);
                schedule.assignments.push(a);
            }
            for mut t in part.history.tasks {
                t.node = NodeId(t.node.0 + offset);
                history.tasks.push(t);
            }
            metrics.merge_from(&part.metrics);
        }
        jobs.sort_by_key(|j| j.id.0);
        schedule.assignments.sort_by_key(|a| (a.task.job.0, a.task.index));
        history.tasks.sort_by_key(|t| (t.task.job.0, t.task.index));
        Snapshot { cluster: self.cluster.clone(), jobs, schedule, history, metrics }
    }

    /// Serve a read from the published snapshot cells. One shard passes
    /// straight through to [`wire::handle_read`] — byte-identical to the
    /// pre-federation read lane. More than one aggregates (see the
    /// module docs for the monotonicity argument).
    pub(crate) fn handle_read(&self, request: wire::ReadRequest) -> wire::Response {
        if self.shards.len() == 1 {
            return wire::handle_read(&self.primary.load(), request);
        }
        let views: Vec<Arc<StateSnapshot>> = self.shards.iter().map(|s| s.cell.load()).collect();
        self.federated_read(&views, request)
    }

    fn federated_read(
        &self,
        views: &[Arc<StateSnapshot>],
        request: wire::ReadRequest,
    ) -> wire::Response {
        let shards: Vec<u64> = views.iter().map(|v| v.version).collect();
        let state = shards.iter().copied().max().unwrap_or(0);
        let versions = wire::Versions { state, shards: &shards };
        // `now` and `periods_elapsed` aggregate with **min**: each cell
        // is monotone, so the min over a fixed set of monotone readings
        // is monotone too — and min is the honest federation clock ("all
        // shards have reached at least t").
        let now = views.iter().map(|v| v.now).min().unwrap_or(Time::ZERO);
        match request {
            wire::ReadRequest::Ping => wire::ping_reply(now, &versions),
            wire::ReadRequest::Status(id) => {
                let home = views.get((id.0 as usize) % views.len().max(1));
                wire::status_reply(id, home.and_then(|view| view.status(id)), &versions)
            }
            wire::ReadRequest::Metrics => {
                let mut merged = RunMetrics::default();
                for view in views {
                    merged.merge_from(&view.metrics);
                }
                let counters = wire::Counters {
                    now,
                    periods_elapsed: views.iter().map(|v| v.periods_elapsed).min().unwrap_or(0),
                    batches_scheduled: views.iter().map(|v| v.batches_scheduled).sum(),
                    pending_tasks: views.iter().map(|v| v.pending_tasks as u64).sum(),
                    draining: self.is_draining() || views.iter().any(|v| v.draining),
                    metrics: &merged,
                };
                wire::metrics_reply(&counters, &versions)
            }
            wire::ReadRequest::Snapshot => {
                let parts = views.iter().map(|v| Snapshot::clone(&v.artifact)).collect();
                wire::snapshot_reply(&self.merge_snapshots(parts), &versions)
            }
        }
    }
}

/// The drain-coordinator loop: owns nothing but the drain protocol.
/// Lives exactly as long as the shard owners; exits once shutdown is
/// flagged and its queue stays empty for one poll interval.
pub(crate) fn coordinate(commands: Receiver<Command>, shared: &Shared) {
    loop {
        let command = match commands.recv_timeout(Duration::from_millis(50)) {
            Ok(c) => c,
            Err(RecvTimeoutError::Timeout) => {
                if shared.stopping() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match command {
            Command::Write(wire::WriteRequest::Drain, reply, _) => {
                let response = shared.router.drain_all();
                let shutdown = response.shutdown;
                reply.deliver(response);
                if shutdown {
                    shared.stop();
                }
            }
            // Nothing else is ever planned onto the coordinator; answer
            // misrouted sinks rather than leaving a client hanging.
            Command::Write(_, reply, _) => reply.deliver(draining_response()),
            Command::Tick(_) | Command::Quiesce(_) | Command::DrainShard(_) => {}
        }
    }
}
