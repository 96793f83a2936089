//! The online preemption-policy interface.
//!
//! Concrete policies (DSP's Algorithm 1 and the Amoeba/Natjam/SRPT
//! baselines) live in `dsp-preempt`; the engine only knows this trait.

use dsp_cluster::NodeId;
use dsp_dag::{Job, JobId, TaskId};
use dsp_units::{Dur, Mi, ResourceVec, Time};

/// Point-in-time view of one task, as policies see it.
///
/// Everything here is *scheduler-believed* state: the engine executes the
/// sampled truth (`TaskSpec::size`) but snapshots expose only the a-priori
/// estimate corrected by observed progress — the re-estimation that feeds
/// Eq. 12/13 priority recomputation every epoch. With exact estimates the
/// believed values equal the truth bit-for-bit.
///
/// A snapshot holds no clock. The two clock-dependent Eq. 13 inputs, `t^w`
/// and `t^a`, are derived at the reader's instant by
/// [`TaskSnapshot::waiting`] and [`TaskSnapshot::allowable_wait`], so a
/// waiting task's snapshot stays valid from queue insertion to removal:
/// only `ready` changes in between (when its last precedent finishes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSnapshot {
    /// The task.
    pub id: TaskId,
    /// Work still *believed* owed: a-priori estimate minus observed
    /// progress (after checkpoint accounting), clamped at zero when a task
    /// overruns its estimate.
    pub remaining_work: Mi,
    /// `t^rem`: believed remaining execution time at the rate of the
    /// task's node.
    pub remaining_time: Dur,
    /// Waiting time of the closed queue stints (every stint before the
    /// current one).
    pub waited: Dur,
    /// Start of the open queue stint; `None` while the task runs.
    pub wait_since: Option<Time>,
    /// The task's level-propagated absolute deadline (Section IV-B).
    pub deadline: Time,
    /// True when currently occupying a slot.
    pub running: bool,
    /// True when every precedent task has finished — the task could
    /// execute right now. Dependency-aware policies (DSP) only admit ready
    /// waiters; dependency-oblivious baselines ignore this and pay in
    /// disorders.
    pub ready: bool,
    /// Peak resource demand (Amoeba ranks by this).
    pub demand: ResourceVec,
    /// A-priori estimated task size — policies never observe the sampled
    /// truth.
    pub size: Mi,
    /// `N^p`: preemptions suffered so far.
    pub preemptions: u32,
}

impl TaskSnapshot {
    /// `t^w` at `now`: the closed stints plus the open one, if any.
    #[inline]
    pub fn waiting(&self, now: Time) -> Dur {
        match self.wait_since {
            Some(since) => self.waited + now.since(since),
            None => self.waited,
        }
    }

    /// `t^a = t^d − t^rem − now`: allowable waiting time from `now`,
    /// saturated at zero.
    #[inline]
    pub fn allowable_wait(&self, now: Time) -> Dur {
        (self.deadline - self.remaining_time).since(now)
    }
}

/// One node's epoch view: the running set and the waiting queue in planned
/// starting-time order (the paper's Fig. 4 queues).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// The node.
    pub node: NodeId,
    /// Currently running tasks (≤ slots).
    pub running: Vec<TaskSnapshot>,
    /// Waiting tasks in ascending planned-start order.
    pub waiting: Vec<TaskSnapshot>,
    /// Slot count of the node.
    pub slots: usize,
}

impl NodeView {
    /// Clear and re-key the view for reuse across epochs: the snapshot
    /// buffers keep their capacity, so a steady-state epoch pass allocates
    /// nothing.
    pub fn reset(&mut self, node: NodeId, slots: usize) {
        self.node = node;
        self.slots = slots;
        self.running.clear();
        self.waiting.clear();
    }
}

impl Default for NodeView {
    fn default() -> Self {
        NodeView { node: NodeId(0), running: Vec::new(), waiting: Vec::new(), slots: 0 }
    }
}

/// Read-only world context shared by all nodes within one epoch.
pub struct WorldCtx<'a> {
    /// All jobs of the run, sorted by ascending `JobId` (ids need not be
    /// contiguous — lookups go through [`WorldCtx::find`]).
    pub jobs: &'a [Job],
    /// Current simulation time.
    pub now: Time,
    /// The engine's epoch ([`crate::EngineConfig::epoch`]): the policy runs
    /// once per epoch, so this is the horizon of each decision.
    pub epoch: Dur,
}

impl<'a> WorldCtx<'a> {
    /// Does task `a` (transitively) depend on task `b`? Tasks of different
    /// jobs never depend on each other (cross-job dependency is future work
    /// in the paper's conclusion).
    pub fn depends_on(&self, a: TaskId, b: TaskId) -> bool {
        if a.job != b.job {
            return false;
        }
        let job = self.job_of(a);
        // Levels are longest-path depths, so an ancestor sits at a strictly
        // shallower level: most C2 probes are settled here, before the
        // allocating BFS.
        let levels = job.levels();
        levels.level_of(a.index) > levels.level_of(b.index) && job.dag.depends_on(a.index, b.index)
    }

    /// The job with the given id, if present. Dense ids (`jobs[i].id == i`,
    /// every batch run) resolve with one probe; sparse ids (the service's
    /// strided lanes) fall back to a binary search.
    pub fn find(&self, id: JobId) -> Option<&'a Job> {
        match self.jobs.get(id.idx()) {
            Some(j) if j.id == id => Some(j),
            _ => self.jobs.binary_search_by(|j| j.id.cmp(&id)).ok().map(|i| &self.jobs[i]),
        }
    }

    /// The job owning a task; panics if the engine handed out a snapshot
    /// for a job it does not know (an internal invariant violation).
    pub fn job_of(&self, t: TaskId) -> &'a Job {
        match self.find(t.job) {
            Some(j) => j,
            None => panic!("unknown job {}", t.job),
        }
    }
}

/// A single preemption decision: suspend `evict` and dispatch `admit` in
/// its slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptAction {
    /// Running task to suspend.
    pub evict: TaskId,
    /// Waiting task to dispatch.
    pub admit: TaskId,
}

/// An online preemption policy, consulted once per node per epoch.
pub trait PreemptPolicy {
    /// Method name as used in the paper's figures ("DSP", "SRPT", ...).
    fn name(&self) -> &str;

    /// Called once at the start of every epoch, before any `decide`, with
    /// one view per node in node order; policies compute global state here
    /// (e.g. DSP's mean neighbouring priority gap for the PP filter).
    fn begin_epoch(&mut self, _now: Time, _views: &[NodeView], _world: &WorldCtx<'_>) {}

    /// Decide this node's preemptions for this epoch. `view` is one of the
    /// views `begin_epoch` was handed at the same instant `now`, unchanged
    /// since: a policy may rely on what it derived from them there (DSP
    /// reads its priorities and urgent entries from that scan).
    fn decide(&mut self, now: Time, view: &NodeView, world: &WorldCtx<'_>) -> Vec<PreemptAction>;

    /// True when preempted tasks resume from their most recent checkpoint;
    /// false makes every preemption restart the victim from scratch (the
    /// paper's SRPT has no checkpoint mechanism).
    fn checkpointing(&self) -> bool {
        true
    }

    /// True for the do-nothing policy: lets the engine skip epoch
    /// snapshotting entirely (a pure-scheduling run has no online phase).
    fn is_noop(&self) -> bool {
        false
    }
}

/// The no-op policy: never preempts. Used for the scheduling-only
/// comparisons of Fig. 5, where all methods run their offline schedule
/// without online adjustment.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPreempt;

impl PreemptPolicy for NoPreempt {
    fn name(&self) -> &str {
        "none"
    }

    fn decide(
        &mut self,
        _now: Time,
        _view: &NodeView,
        _world: &WorldCtx<'_>,
    ) -> Vec<PreemptAction> {
        Vec::new()
    }

    fn is_noop(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    fn two_jobs() -> Vec<Job> {
        let mut d0 = Dag::new(2);
        d0.add_edge(0, 1).unwrap();
        let j0 = Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1.0), TaskSpec::sized(1.0)],
            d0,
        );
        let j1 = Job::new(
            JobId(1),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1.0)],
            Dag::new(1),
        );
        vec![j0, j1]
    }

    #[test]
    fn depends_on_is_job_local() {
        let jobs = two_jobs();
        let w = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        assert!(w.depends_on(TaskId::new(0, 1), TaskId::new(0, 0)));
        assert!(!w.depends_on(TaskId::new(0, 0), TaskId::new(0, 1)));
        assert!(!w.depends_on(TaskId::new(1, 0), TaskId::new(0, 0)));
    }

    #[test]
    fn clock_dependent_inputs_derive_at_the_reader_instant() {
        let mut s = TaskSnapshot {
            id: TaskId::new(0, 0),
            remaining_work: Mi::new(1.0),
            remaining_time: Dur::from_secs(2),
            waited: Dur::from_secs(5),
            wait_since: Some(Time::from_secs(3)),
            deadline: Time::from_secs(10),
            running: false,
            ready: true,
            demand: ResourceVec::cpu_mem(0.1, 0.1),
            size: Mi::new(1.0),
            preemptions: 0,
        };
        // t^w grows with the open stint; t^a = 10 − 2 − now saturates at 8 s.
        assert_eq!(s.waiting(Time::from_secs(4)), Dur::from_secs(6));
        assert_eq!(s.allowable_wait(Time::from_secs(4)), Dur::from_secs(4));
        assert_eq!(s.allowable_wait(Time::from_secs(8)), Dur::ZERO);
        assert_eq!(s.allowable_wait(Time::from_secs(9)), Dur::ZERO);
        // A running task's t^w is frozen at its closed stints.
        s.wait_since = None;
        assert_eq!(s.waiting(Time::from_secs(40)), Dur::from_secs(5));
    }

    #[test]
    fn no_preempt_never_acts() {
        let jobs = two_jobs();
        let w = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView { node: NodeId(0), running: vec![], waiting: vec![], slots: 2 };
        assert!(NoPreempt.decide(Time::ZERO, &view, &w).is_empty());
        assert!(NoPreempt.checkpointing());
    }
}
