//! The placement router: assigns writes to shards, answers reads from
//! every shard's view, and runs the federated drain's protocol on shard
//! 0's owner thread (DESIGN.md §10.7).
//!
//! **Placement.** Shard `i` of `N` admits jobs on the strided id lane
//! `i, i+N, i+2N, …`, so `id % N` names the owning shard. The router's
//! round-robin batch cursor decides the lane, and the lane *is* the
//! hash: placement is hash-by-JobId, deterministic for a fixed
//! submission order. Every `drain` goes to shard 0.
//!
//! **Reads.** One path at every shard count: the N cells are loaded
//! without any cross-shard lock and folded by `wire::read_views`
//! (max of versions, min of clocks, all-of `draining`, each monotone in
//! every shard, so a connection never sees them go backwards). One
//! shard's view is answered as it stands, with nothing copied.
//!
//! **Drain.** Shard 0 sends every other shard a drain, drains itself
//! meanwhile, then merges the per-shard snapshots into one artifact over
//! the full cluster — node ids are mapped back from shard-local to
//! global, so `dsp verify` audits the merged history against the real
//! inventory. Each shard's queue is FIFO, so a submit queued ahead of
//! the drain is admitted and drained, and one queued behind it is
//! refused `draining` by the driver itself — never dropped.

use crate::codec::Snapshot;
use crate::reactor::ReplyHandle;
use crate::server::{Command, Dispatch};
use crate::state::{SnapshotCell, StateSnapshot};
use crate::wire;
use dsp_cluster::{ClusterSpec, NodeId};
use dsp_metrics::RunMetrics;
use dsp_sim::{ExecHistory, Schedule};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;

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
        cluster: ClusterSpec,
        offsets: Vec<u32>,
    ) -> std::io::Result<Router> {
        debug_assert_eq!(shards.len(), offsets.len());
        if shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a federation needs at least one shard",
            ));
        }
        Ok(Router { shards, cursor: AtomicU64::new(0), cluster, offsets })
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Resolve a write to its shard exactly once: a drain goes to shard
    /// 0, a submit to the next shard in cursor order.
    pub(crate) fn plan(&self, request: wire::WriteRequest, reply: ReplyHandle) -> Dispatch {
        let shard = match &request {
            wire::WriteRequest::Drain => 0,
            wire::WriteRequest::Submit(_) => self.pick_shard(),
        };
        Dispatch { shard, command: Command::Write(request, reply) }
    }

    /// Non-blocking send; a `Full` refusal hands the dispatch back
    /// intact so the reactor can park and retry it against the *same*
    /// shard — backpressure never re-routes a request.
    pub(crate) fn try_send(&self, dispatch: Dispatch) -> Result<(), TrySendError<Dispatch>> {
        let Dispatch { shard, command } = dispatch;
        let Some(queue) = self.shards.get(shard).map(|s| &s.commands) else {
            return Err(TrySendError::Disconnected(Dispatch { shard, command }));
        };
        queue.try_send(command).map_err(|e| match e {
            TrySendError::Full(command) => TrySendError::Full(Dispatch { shard, command }),
            TrySendError::Disconnected(command) => {
                TrySendError::Disconnected(Dispatch { shard, command })
            }
        })
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

    /// The federated drain, run on shard 0's owner thread: ask every
    /// other shard to run dry, run shard 0 dry (`drain_own`) while they
    /// do, collect the other snapshots in shard order, merge. A shard's
    /// queue is FIFO, so the drain splits its submits cleanly: those
    /// queued ahead are admitted and drained, those behind it are
    /// refused `draining` by the driver. Idempotent: a second `drain`
    /// re-drains already-drained shards and rebuilds the same artifact.
    pub(crate) fn drain_all(&self, drain_own: impl FnOnce() -> Snapshot) -> wire::Response {
        let pending: Vec<_> = (self.shards.iter().skip(1))
            .filter_map(|shard| {
                let (out_tx, out_rx) = sync_channel(1);
                shard.commands.send(Command::DrainShard(out_tx)).ok().map(|()| out_rx)
            })
            .collect();
        let mut parts = vec![Cow::Owned(drain_own())];
        parts
            .extend(pending.iter().filter_map(|out_rx| out_rx.recv().ok()).map(|s| Cow::Owned(*s)));
        if parts.len() != self.shards.len() {
            // A shard owner exited before draining (shutdown race): shut
            // down, but do not fabricate a partial artifact.
            return wire::Response {
                body: wire::error_response(
                    wire::reason::DRAINING,
                    "a shard exited before its drain finished",
                ),
                shutdown: true,
            };
        }
        wire::drain_reply(&self.merge_snapshots(parts))
    }

    /// Merge per-shard snapshots (in shard order) into one artifact over
    /// the full cluster: node ids map back from shard-local to global
    /// via the split offsets, jobs merge by ascending id, and schedule/
    /// history rows sort by (job, task) with the stable sort preserving
    /// each shard's intra-task segment order. A single part is returned
    /// as it came, so the 1-shard artifact is the driver's own, uncopied.
    fn merge_snapshots<'a>(&self, mut parts: Vec<Cow<'a, Snapshot>>) -> Cow<'a, Snapshot> {
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
            let part = part.into_owned();
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
        Cow::Owned(Snapshot { cluster: self.cluster.clone(), jobs, schedule, history, metrics })
    }

    /// Serve a read from every shard's published cell, at any shard
    /// count (see the module docs for the monotonicity argument).
    pub(crate) fn handle_read(&self, request: wire::ReadRequest) -> wire::Response {
        let cells: Vec<Arc<StateSnapshot>> = self.shards.iter().map(|s| s.cell.load()).collect();
        let views: Vec<&StateSnapshot> = cells.iter().map(Arc::as_ref).collect();
        wire::read_views(&views, request, || {
            self.merge_snapshots(views.iter().map(|v| Cow::Borrowed(v.artifact.as_ref())).collect())
        })
    }
}
