//! The read lane: epoch-published, immutable service state.
//!
//! The service's request path is split into two lanes (DESIGN.md §10.5).
//! Mutations (`submit`, `drain`, clock ticks, fault injection) are owned
//! by a single driver thread; after every mutating call that thread
//! rebuilds a [`StateSnapshot`] and publishes it into a [`SnapshotCell`].
//! Read requests (`ping`, `status`, `metrics`, `snapshot`) are answered
//! from the most recently published `Arc<StateSnapshot>` and **never**
//! touch the driver — a drain running the simulation dry or a fat submit
//! validating thousands of tasks cannot stall a monitoring client.
//!
//! Staleness bound: a read observes the state as of the *last completed*
//! mutation — at most one command behind the driver, and never torn
//! (the snapshot is immutable once published). `version` is a publish
//! sequence number; successive reads on one connection see it
//! non-decreasing, which the concurrency stress tier asserts.
//!
//! Under `--shards N` there are N cells, one per shard, each fed by its
//! own driver-owner thread exactly as above. The router reads them
//! without any cross-shard lock and aggregates (max of versions, min of
//! clocks — both monotone); per-shard semantics in this module are
//! unchanged (DESIGN.md §10.7).
//!
//! The cell is a `std::sync::RwLock<Arc<_>>` whose critical sections are
//! a pointer clone (readers) and a pointer swap (the publisher): `unsafe`
//! is forbidden workspace-wide, which rules out a hand-written lock-free
//! `Arc` swap, and nothing measured asks for one — readers never wait on
//! the driver, only, briefly, on each other's pointer clones, and there
//! is no lock convoy because the driver's work happens entirely outside
//! the cell.
//!
//! Poison policy: both accessors recover the guard
//! (`PoisonError::into_inner`). The only value behind the lock is one
//! `Arc` pointer, replaced by a single assignment, so a thread that
//! panics while holding a guard cannot leave it torn — readers keep
//! getting the last published snapshot and a later publish still lands.
//! Refusing every read after an owner-thread panic would turn one dead
//! shard into a dead monitoring plane for no protection in return.

use crate::codec::Snapshot;
use crate::driver::JobStatus;
use dsp_dag::JobId;
use dsp_metrics::RunMetrics;
use dsp_units::Time;
use std::sync::{Arc, PoisonError, RwLock};

/// One immutable, internally consistent view of the service, published
/// by the driver-owner thread after each mutation.
#[derive(Debug, Clone)]
pub struct StateSnapshot {
    /// Publish sequence number: strictly increasing across publishes,
    /// echoed as `state_version` in every read response.
    pub version: u64,
    /// Simulation instant at publish time.
    pub now: Time,
    /// The next scheduling-period boundary.
    pub next_boundary: Time,
    /// Scheduling-period boundaries crossed so far.
    pub periods_elapsed: u64,
    /// Non-empty batches handed to the offline scheduler so far.
    pub batches_scheduled: u64,
    /// Tasks buffered in the pending queue.
    pub pending_tasks: usize,
    /// True once a drain began (readers see it flip mid-drain).
    pub draining: bool,
    /// Live counters, cloned at publish time.
    pub metrics: RunMetrics,
    /// Every known job's status, ascending id (pending + engine-injected).
    statuses: Vec<(JobId, JobStatus)>,
    /// The auditable artifact (`snapshot` op payload). Shared across
    /// quiet publishes: ticks that processed no engine event and changed
    /// no queue reuse the previous `Arc` instead of re-cloning history.
    pub artifact: Arc<Snapshot>,
}

impl StateSnapshot {
    /// Assemble a snapshot. `statuses` must be sorted by ascending id
    /// (the driver builds it that way; debug-asserted here).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        version: u64,
        now: Time,
        next_boundary: Time,
        periods_elapsed: u64,
        batches_scheduled: u64,
        pending_tasks: usize,
        draining: bool,
        metrics: RunMetrics,
        statuses: Vec<(JobId, JobStatus)>,
        artifact: Arc<Snapshot>,
    ) -> Self {
        debug_assert!(
            statuses.windows(2).all(|w| w[0].0 < w[1].0),
            "statuses must be sorted by strictly ascending job id"
        );
        StateSnapshot {
            version,
            now,
            next_boundary,
            periods_elapsed,
            batches_scheduled,
            pending_tasks,
            draining,
            metrics,
            statuses,
            artifact,
        }
    }

    /// Where `id` stood at publish time; `None` for ids never admitted.
    pub fn status(&self, id: JobId) -> Option<&JobStatus> {
        self.statuses.binary_search_by_key(&id, |(jid, _)| *jid).ok().map(|i| &self.statuses[i].1)
    }

    /// Jobs known at publish time (pending + injected).
    pub fn jobs_known(&self) -> usize {
        self.statuses.len()
    }
}

/// The publish point: a single-writer, many-reader cell holding the
/// current `Arc<StateSnapshot>`.
pub struct SnapshotCell {
    cell: RwLock<Arc<StateSnapshot>>,
}

impl SnapshotCell {
    /// Seed the cell with the service's initial (version 0) state.
    pub fn new(initial: StateSnapshot) -> Self {
        SnapshotCell { cell: RwLock::new(Arc::new(initial)) }
    }

    /// Grab the latest published view. Cost: one `Arc` clone under a
    /// read lock — independent of driver activity.
    pub fn load(&self) -> Arc<StateSnapshot> {
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Swap in a new view (driver-owner thread only). Panics in debug
    /// builds if the version does not advance — publishes must be
    /// monotone or readers could observe time running backwards.
    pub fn publish(&self, snapshot: StateSnapshot) {
        let next = Arc::new(snapshot);
        let replaced = {
            let mut slot = self.cell.write().unwrap_or_else(PoisonError::into_inner);
            debug_assert!(
                next.version > slot.version,
                "snapshot version must advance ({} -> {})",
                slot.version,
                next.version
            );
            std::mem::replace(&mut *slot, next)
        };
        // Dropping the replaced view can free the last copy of the previous
        // artifact (its history, schedule and jobs: about a millisecond on a
        // drained state), so it happens here, after the write lock is
        // released: a `load` waits for the pointer swap and nothing more.
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::uniform;
    use dsp_sim::Schedule;

    fn snap(version: u64, now_s: u64) -> StateSnapshot {
        let artifact = Arc::new(Snapshot {
            cluster: uniform(1, 1000.0, 1),
            jobs: vec![],
            schedule: Schedule::new(),
            history: dsp_sim::ExecHistory { sigma: dsp_units::Dur::ZERO, tasks: vec![] },
            metrics: RunMetrics::default(),
        });
        StateSnapshot::new(
            version,
            Time::from_secs(now_s),
            Time::from_secs(300),
            0,
            0,
            0,
            false,
            RunMetrics::default(),
            vec![(JobId(0), JobStatus::Pending), (JobId(2), JobStatus::Pending)],
            artifact,
        )
    }

    #[test]
    fn status_lookup_is_by_sparse_id() {
        let s = snap(1, 0);
        assert_eq!(s.status(JobId(0)), Some(&JobStatus::Pending));
        assert!(s.status(JobId(1)).is_none(), "gap ids are unknown");
        assert_eq!(s.status(JobId(2)), Some(&JobStatus::Pending));
        assert!(s.status(JobId(3)).is_none());
        assert_eq!(s.jobs_known(), 2);
    }

    #[test]
    fn cell_swaps_and_loads_are_consistent() {
        let cell = SnapshotCell::new(snap(0, 0));
        assert_eq!(cell.load().version, 0);
        cell.publish(snap(1, 10));
        cell.publish(snap(2, 20));
        let view = cell.load();
        assert_eq!(view.version, 2);
        assert_eq!(view.now, Time::from_secs(20));
        // A held view stays consistent across later publishes.
        cell.publish(snap(3, 30));
        assert_eq!(view.version, 2, "immutable once loaded");
        assert_eq!(cell.load().version, 3);
    }

    /// The poison policy of the module docs, checked: a thread that dies
    /// holding the write guard costs neither the readers their last
    /// published snapshot nor the next publisher its slot.
    #[test]
    fn a_panic_under_the_write_guard_blocks_neither_loads_nor_publishes() {
        let cell = SnapshotCell::new(snap(0, 0));
        cell.publish(snap(1, 10));
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cell.cell.write().unwrap();
                    panic!("owner thread dies holding the write guard");
                })
                .join()
        });
        assert!(died.is_err());
        assert!(cell.cell.is_poisoned(), "the panic must have poisoned the lock");
        assert_eq!(cell.load().version, 1, "readers keep the last published snapshot");
        cell.publish(snap(2, 20));
        assert_eq!(cell.load().version, 2);
    }

    #[test]
    #[should_panic(expected = "version must advance")]
    #[cfg(debug_assertions)]
    fn stale_publish_is_rejected() {
        let cell = SnapshotCell::new(snap(5, 0));
        cell.publish(snap(5, 1));
    }
}
