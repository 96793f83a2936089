//! Engine-internal runtime state: per-task and per-node records plus the
//! dense global task index.

use dsp_cluster::NodeId;
use dsp_dag::{Job, JobId, TaskId};
use dsp_units::{Dur, Mi, Time};

/// Maps `TaskId`s to dense global indices `0..total` across all jobs.
///
/// Jobs are keyed by their `JobId` in ascending order; ids need not be
/// contiguous (a long-running service hands out ids across batches), only
/// strictly increasing. The index grows incrementally via
/// [`TaskIndex::push_job`].
#[derive(Debug, Clone, Default)]
pub struct TaskIndex {
    /// Ascending job ids; position = dense job index.
    job_ids: Vec<JobId>,
    /// First global task index of each dense job.
    offsets: Vec<usize>,
    ids: Vec<TaskId>,
}

impl TaskIndex {
    /// Build the index over a job list (sorted by strictly increasing
    /// `JobId`).
    pub fn new(jobs: &[Job]) -> Self {
        let mut ix = TaskIndex::default();
        for job in jobs {
            ix.push_job(job);
        }
        ix
    }

    /// Append one more job; its id must exceed every id already indexed.
    pub fn push_job(&mut self, job: &Job) {
        if let Some(&last) = self.job_ids.last() {
            assert!(job.id > last, "job ids must be strictly increasing: {} after {last}", job.id);
        }
        self.job_ids.push(job.id);
        self.offsets.push(self.ids.len());
        for v in 0..job.num_tasks() as u32 {
            self.ids.push(job.task_id(v));
        }
    }

    /// Total number of tasks.
    #[inline]
    pub fn total(&self) -> usize {
        self.ids.len()
    }

    /// Number of indexed jobs.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.job_ids.len()
    }

    /// Dense job index of a `JobId`, if known ([`JobId::position_in`]).
    #[inline]
    pub fn try_job_dense(&self, id: JobId) -> Option<usize> {
        id.position_in(&self.job_ids, |&j| j)
    }

    /// Dense job index of a `JobId`; panics on an unknown job.
    #[inline]
    pub fn job_dense(&self, id: JobId) -> usize {
        match self.try_job_dense(id) {
            Some(d) => d,
            None => panic!("unknown job {id}"),
        }
    }

    /// Global task range of a dense job index.
    #[inline]
    pub fn tasks_of(&self, dense: usize) -> std::ops::Range<usize> {
        let start = self.offsets[dense];
        let end = self.offsets.get(dense + 1).copied().unwrap_or(self.ids.len());
        start..end
    }

    /// Dense index of a task.
    #[inline]
    pub fn global(&self, t: TaskId) -> usize {
        self.offsets[self.job_dense(t.job)] + t.idx()
    }

    /// Task id at a dense index.
    #[inline]
    pub fn id(&self, g: usize) -> TaskId {
        self.ids[g]
    }
}

/// Lifecycle of a task inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtState {
    /// Not yet injected by any schedule batch.
    NotArrived,
    /// In a node's waiting queue.
    Waiting,
    /// Occupying a slot.
    Running,
    /// Finished.
    Done,
}

/// Mutable runtime record of one task.
#[derive(Debug, Clone)]
pub struct TaskRt {
    /// Assigned node (meaningful once injected).
    pub node: NodeId,
    /// Planned starting time from the offline schedule; queue order key.
    pub planned_start: Time,
    /// Work still owed.
    pub remaining: Mi,
    /// Recovery time to pay before useful work at the next dispatch
    /// (`t^r + σ` accumulated from preemptions).
    pub pending_overhead: Dur,
    /// Accumulated waiting time of the closed queue stints.
    pub total_wait: Dur,
    /// Start of the current waiting stint.
    pub wait_since: Time,
    /// Instant useful work (after overhead) begins for the current run.
    pub work_start: Time,
    /// Lifecycle state.
    pub state: RtState,
    /// `N^p`: preemptions suffered.
    pub preempt_count: u32,
    /// Unfinished precedent count; the task is ready when zero.
    pub unfinished_parents: u32,
    /// Level-propagated absolute deadline.
    pub deadline: Time,
    /// Generation counter invalidating stale finish events.
    pub gen: u32,
    /// MI processed across all stints, including work later discarded by
    /// restart-from-scratch evictions (execution-history accounting).
    pub executed: Mi,
    /// MI discarded by restart-from-scratch evictions.
    pub lost: Mi,
    /// Recovery overhead actually paid at dispatch, summed over stints.
    pub overhead_paid: Dur,
    /// Recovery charges levied (policy preemptions + charged fault kills).
    pub recovery_charges: u32,
    /// Completion instant; meaningful once `state == Done`.
    pub finish: Time,
}

impl TaskRt {
    /// Fresh, not-yet-arrived record.
    pub fn new(size: Mi, unfinished_parents: u32, deadline: Time) -> Self {
        TaskRt {
            node: NodeId(0),
            planned_start: Time::ZERO,
            remaining: size,
            pending_overhead: Dur::ZERO,
            total_wait: Dur::ZERO,
            wait_since: Time::ZERO,
            work_start: Time::ZERO,
            state: RtState::NotArrived,
            preempt_count: 0,
            unfinished_parents,
            deadline,
            gen: 0,
            executed: Mi::ZERO,
            lost: Mi::ZERO,
            overhead_paid: Dur::ZERO,
            recovery_charges: 0,
            finish: Time::ZERO,
        }
    }

    /// Is the task ready to execute (all precedents done)?
    #[inline]
    pub fn ready(&self) -> bool {
        self.unfinished_parents == 0
    }

    /// Account the current stint's work at `rate` up to `now`: add it to
    /// `executed` and remove it from `remaining`. The stint's yield is
    /// clamped to the work still owed so floating-point surplus from rate
    /// conversion never fabricates MI.
    pub fn account_progress(&mut self, rate: dsp_units::Mips, now: Time) {
        if now > self.work_start {
            let done = Mi::done_in(rate, now.since(self.work_start));
            let done = if done > self.remaining { self.remaining } else { done };
            self.executed += done;
            self.remaining = self.remaining - done;
        }
    }
}

/// Per-node runtime: the waiting queue (planned-start order) and running
/// set, both as dense task indices.
///
/// Invariant: `queue` holds exactly the tasks assigned to this node whose
/// state is [`RtState::Waiting`] — every transition out of `Waiting`
/// (dispatch) removes the entry in the same step, every transition into it
/// (injection, eviction, fault kill, migration) inserts one. The engine's
/// maintained policy view mirrors `queue` index for index and relies on it.
#[derive(Debug, Clone, Default)]
pub struct NodeRt {
    /// Waiting tasks, ascending planned start.
    pub queue: Vec<usize>,
    /// Running tasks (≤ slots).
    pub running: Vec<usize>,
}

impl NodeRt {
    /// Task `g`'s key in the queue's order: ascending planned start, ties
    /// broken by dense index (the engine's global queue order).
    #[inline]
    pub fn queue_key(tasks: &[TaskRt], g: usize) -> (u64, usize) {
        (tasks[g].planned_start.as_micros(), g)
    }

    /// The position task `g` takes in the queue's order.
    fn planned_position(&self, tasks: &[TaskRt], g: usize) -> usize {
        let key = NodeRt::queue_key(tasks, g);
        self.queue.partition_point(|&q| NodeRt::queue_key(tasks, q) < key)
    }

    /// Insert waiting task `g` at the position its planned start dictates
    /// and return that position.
    pub fn insert_by_planned_start(&mut self, tasks: &[TaskRt], g: usize) -> usize {
        let pos = self.planned_position(tasks, g);
        self.queue.insert(pos, g);
        pos
    }

    /// Where queued task `g` sits: a binary search on the queue's own key.
    pub fn position_of(&self, tasks: &[TaskRt], g: usize) -> usize {
        let pos = self.planned_position(tasks, g);
        debug_assert_eq!(self.queue.get(pos), Some(&g), "task {g} is not queued here");
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    fn jobs() -> Vec<Job> {
        (0..3u32)
            .map(|i| {
                Job::new(
                    JobId(i),
                    JobClass::Small,
                    Time::ZERO,
                    Time::MAX,
                    vec![TaskSpec::sized(1.0); (i + 1) as usize],
                    Dag::new((i + 1) as usize),
                )
            })
            .collect()
    }

    #[test]
    fn index_roundtrip() {
        let jobs = jobs();
        let idx = TaskIndex::new(&jobs);
        assert_eq!(idx.total(), 6);
        assert_eq!(idx.num_jobs(), 3);
        for g in 0..idx.total() {
            assert_eq!(idx.global(idx.id(g)), g);
        }
        assert_eq!(idx.global(TaskId::new(2, 1)), 1 + 2 + 1);
    }

    #[test]
    fn index_handles_sparse_job_ids() {
        // Ids 4, 17, 40: monotone but nowhere near contiguous.
        let jobs: Vec<Job> = [4u32, 17, 40]
            .iter()
            .enumerate()
            .map(|(k, &id)| {
                Job::new(
                    JobId(id),
                    JobClass::Small,
                    Time::ZERO,
                    Time::MAX,
                    vec![TaskSpec::sized(1.0); k + 1],
                    Dag::new(k + 1),
                )
            })
            .collect();
        let idx = TaskIndex::new(&jobs);
        assert_eq!(idx.total(), 6);
        for g in 0..idx.total() {
            assert_eq!(idx.global(idx.id(g)), g);
        }
        assert_eq!(idx.job_dense(JobId(17)), 1);
        assert_eq!(idx.try_job_dense(JobId(5)), None);
        assert_eq!(idx.tasks_of(2), 3..6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn index_rejects_non_monotone_ids() {
        let mk =
            |id| Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::MAX, vec![], Dag::new(0));
        let mut idx = TaskIndex::default();
        idx.push_job(&mk(7));
        idx.push_job(&mk(7));
    }

    #[test]
    fn readiness() {
        let mut t = TaskRt::new(Mi::new(1.0), 2, Time::MAX);
        assert!(!t.ready());
        t.unfinished_parents = 0;
        assert!(t.ready());
    }
}
