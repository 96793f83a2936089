//! The placement router: assigns submit batches to shards, aggregates
//! the per-shard read views into one federated reply, and coordinates
//! the federated drain (DESIGN.md §10.7).
//!
//! **Placement.** Shard `i` of `N` admits jobs on the strided id lane
//! `i, i+N, i+2N, …`, so `id % N` names the owning shard. The router's
//! round-robin batch cursor decides the lane, and the lane *is* the
//! hash: placement is hash-by-JobId, deterministic for a fixed
//! submission order.
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
//! **Drain.** The coordinator sends every shard a drain at once, then
//! merges the per-shard snapshots into one artifact over the full
//! cluster — node ids are mapped back from shard-local to global, so
//! `dsp verify` audits the merged history against the real inventory.
//! Each shard's queue is FIFO, so a submit queued ahead of the drain is
//! admitted and drained, and one queued behind it is refused `draining`
//! by the driver itself — never dropped.

use crate::codec::Snapshot;
use crate::reactor::ReplyHandle;
use crate::server::{draining_response, Command, Dispatch, Shared, Target};
use crate::state::{SnapshotCell, StateSnapshot};
use crate::wire;
use dsp_cluster::{ClusterSpec, NodeId};
use dsp_metrics::RunMetrics;
use dsp_sim::{ExecHistory, Schedule};
use dsp_units::Time;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// How the router assigns a submit batch to a shard. Inert: `Hash` is
/// the only placement, and the type stays only because the benchmark
/// crate names it in its [`crate::ServerConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Batches round-robin across shards in arrival order; with the
    /// strided id lanes this *is* hash-by-JobId (`id % N` = owning
    /// shard).
    Hash,
}

/// A shard as the router sees it: its command queue and its read cell.
pub(crate) struct ShardHandle {
    pub(crate) commands: SyncSender<Command>,
    pub(crate) cell: Arc<SnapshotCell>,
}

/// The federation's routing fabric. Shared read-only by every front-end
/// and driver-owner thread; the only interior mutability is the batch
/// cursor.
pub(crate) struct Router {
    shards: Vec<ShardHandle>,
    /// Shard 0's read cell, captured at construction (a router always
    /// has a first shard).
    primary: Arc<SnapshotCell>,
    coordinator: SyncSender<Command>,
    /// Round-robin cursor: one step per submit batch, so a fixed
    /// submission order yields a fixed assignment.
    cursor: AtomicU64,
    /// The full, unsplit inventory (merged artifacts report this).
    cluster: ClusterSpec,
    /// Global node-id offset per shard ([`ClusterSpec::split_offsets`]).
    offsets: Vec<u32>,
}

impl Router {
    pub(crate) fn new(
        shards: Vec<ShardHandle>,
        coordinator: SyncSender<Command>,
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
            cursor: AtomicU64::new(0),
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

    /// Resolve a write to its destination exactly once: a drain goes to
    /// the coordinator, a submit to the next shard in cursor order.
    pub(crate) fn plan(&self, request: wire::WriteRequest, reply: ReplyHandle) -> Dispatch {
        let target = match &request {
            wire::WriteRequest::Drain => Target::Coordinator,
            wire::WriteRequest::Submit(_) => Target::Shard(self.pick_shard()),
        };
        Dispatch { target, command: Command::Write(request, reply) }
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
    fn pick_shard(&self) -> usize {
        let n = self.shards.len();
        if n <= 1 {
            return 0;
        }
        // ordering: Relaxed — a pure round-robin counter; no other data
        // is published through it, and any interleaving of concurrent
        // submitters is an equally valid arrival order.
        (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % n
    }

    /// The federated drain, run on the coordinator thread: ask every
    /// shard to run dry at once, collect the per-shard snapshots in
    /// shard order, merge. A shard's queue is FIFO, so the drain splits
    /// its submits cleanly: those queued ahead are admitted and drained,
    /// those behind it are refused `draining` by the driver. Idempotent:
    /// a second `drain` re-drains already-drained shards and rebuilds
    /// the same artifact.
    pub(crate) fn drain_all(&self) -> wire::Response {
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
                    // True once every shard has stopped admitting: as
                    // monotone as each cell, like the min clock above.
                    draining: views.iter().all(|v| v.draining),
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
            Command::Write(wire::WriteRequest::Drain, reply) => {
                let response = shared.router.drain_all();
                let shutdown = response.shutdown;
                reply.deliver(response);
                if shutdown {
                    shared.stop();
                }
            }
            // Nothing else is ever planned onto the coordinator; answer
            // misrouted sinks rather than leaving a client hanging.
            Command::Write(_, reply) => reply.deliver(draining_response()),
            Command::Tick(_) | Command::DrainShard(_) => {}
        }
    }
}
