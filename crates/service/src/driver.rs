//! The online driver: an [`Engine`] advanced incrementally under a live
//! admission queue.
//!
//! This is the paper's two-phase loop run as a *service* instead of a
//! batch experiment: submissions buffer in a bounded pending queue, the
//! offline scheduler fires at every `sched_period` boundary over exactly
//! the jobs that arrived since the last one, the batch is placed onto the
//! *partially busy* cluster (`dsp_core::PeriodPlanner`, the planner the
//! offline batch path uses), and between boundaries the engine's epoch
//! preemption loop runs continuously. Drain flushes the queue, runs the
//! simulation dry, and emits a self-contained [`Snapshot`] that `dsp verify`
//! can audit.

use crate::admission::{check_feasible, AdmissionConfig, AdmitError};
use crate::codec::Snapshot;
use crate::state::StateSnapshot;
use dsp_core::PeriodPlanner;
use dsp_dag::{validate_jobs, Dag, Job, JobClass, JobId, TaskSpec};
use dsp_metrics::RunMetrics;
use dsp_sim::{Engine, EngineConfig, FaultPlan, JobProgress, PreemptPolicy, Schedule};
use dsp_units::{Dur, Time};
use std::sync::Arc;

/// A job as a client submits it: no id (the service assigns the next
/// monotone [`JobId`]), no arrival (submission instant), and a deadline
/// *relative* to submission (`None` = best-effort, no deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Size class label.
    pub class: JobClass,
    /// Deadline as an offset from the submission instant; `None` maps to
    /// the `Time::MAX` "no deadline" sentinel.
    pub deadline: Option<Dur>,
    /// Task specifications.
    pub tasks: Vec<TaskSpec>,
    /// Dependency edges over the task indices.
    pub edges: Vec<(u32, u32)>,
}

impl JobRequest {
    /// Strip a fully-formed [`Job`] back to submission form: the id and
    /// arrival are dropped (the service reassigns both) and the absolute
    /// deadline becomes an offset from the job's own arrival. Lets
    /// generated workloads (`dsp_trace::generate_workload`) be replayed
    /// through the wire protocol.
    pub fn from_job(job: &Job) -> JobRequest {
        JobRequest {
            class: job.class,
            deadline: if job.deadline == Time::MAX {
                None
            } else {
                Some(job.deadline.since(job.arrival))
            },
            tasks: job.tasks.clone(),
            edges: job.dag.edges().collect(),
        }
    }

    pub(crate) fn into_job(self, id: JobId, arrival: Time) -> Result<Job, AdmitError> {
        if self.tasks.is_empty() {
            return Err(AdmitError::Invalid(format!("job {} has no tasks", id.0)));
        }
        let n = self.tasks.len();
        let mut dag = Dag::new(n);
        for (u, v) in self.edges {
            if u as usize >= n || v as usize >= n {
                return Err(AdmitError::Invalid(format!(
                    "edge ({u},{v}) out of range for {n} tasks"
                )));
            }
            dag.add_edge(u, v)
                .map_err(|e| AdmitError::Invalid(format!("edge ({u},{v}): {e:?}")))?;
        }
        let deadline = match self.deadline {
            Some(d) => arrival + d,
            None => Time::MAX,
        };
        Ok(Job::new(id, self.class, arrival, deadline, self.tasks, dag))
    }
}

/// Where a known job currently stands.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Buffered, waiting for the next scheduling-period boundary.
    Pending,
    /// Injected into the engine; live progress attached.
    Active(JobProgress),
}

/// The long-running service core. Owns the engine, scheduler, and
/// preemption policy; single-threaded by design. The server gives it to
/// exactly one driver-owner thread that drains a bounded command queue
/// and publishes an immutable [`StateSnapshot`] after every mutation —
/// read requests are served from the published view and never reach the
/// driver (DESIGN.md §10.5).
pub struct OnlineDriver {
    engine: Engine,
    scheduler: Box<dyn dsp_sched::Scheduler + Send>,
    policy: Box<dyn PreemptPolicy + Send>,
    sched_period: Dur,
    admission: AdmissionConfig,
    /// Jobs admitted but not yet handed to the engine, ascending id.
    pending: Vec<Job>,
    pending_tasks: usize,
    next_id: u32,
    /// Id step between consecutively admitted jobs. 1 for a standalone
    /// driver; shard `i` of an `N`-shard federation uses base `i`, stride
    /// `N`, so `id % N` names the owning shard and the federated id space
    /// stays collision-free without coordination (DESIGN.md §10.7).
    id_stride: u32,
    /// The offline phase's backlog across periods — the planner
    /// `dsp_core::experiment::periodic_schedules` runs over a whole trace.
    planner: PeriodPlanner,
    next_boundary: Time,
    /// All period batches merged — the offline plan `dsp verify` audits.
    combined: Schedule,
    draining: bool,
    periods_elapsed: u64,
    batches_scheduled: u64,
}

impl OnlineDriver {
    /// Build a driver over an empty cluster-backed engine. `sched_period`
    /// is the offline phase's cadence; the epoch cadence rides in `cfg`.
    pub fn new(
        cluster: dsp_cluster::ClusterSpec,
        cfg: EngineConfig,
        sched_period: Dur,
        scheduler: Box<dyn dsp_sched::Scheduler + Send>,
        policy: Box<dyn PreemptPolicy + Send>,
        admission: AdmissionConfig,
    ) -> Self {
        assert!(!sched_period.is_zero(), "sched_period must be positive");
        OnlineDriver {
            planner: PeriodPlanner::new(&cluster),
            engine: Engine::new(Vec::new(), cluster, cfg),
            scheduler,
            policy,
            sched_period,
            admission,
            pending: Vec::new(),
            pending_tasks: 0,
            next_id: 0,
            id_stride: 1,
            next_boundary: Time::ZERO + sched_period,
            combined: Schedule::new(),
            draining: false,
            periods_elapsed: 0,
            batches_scheduled: 0,
        }
    }

    /// Restrict this driver to the strided id lane `base, base+stride,
    /// base+2·stride, …` — shard `base` of a `stride`-shard federation.
    /// Must be applied before any admission; the default lane (`0, 1`)
    /// is the pre-federation behavior, byte for byte.
    pub fn with_id_lane(mut self, base: u32, stride: u32) -> Self {
        assert!(stride >= 1, "id stride must be positive");
        assert!(base < stride, "id lane base must be below the stride");
        assert_eq!(self.next_id, 0, "id lane must be set before any admission");
        self.next_id = base;
        self.id_stride = stride;
        self
    }

    /// Current simulation instant.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// The next scheduling-period boundary.
    pub fn next_boundary(&self) -> Time {
        self.next_boundary
    }

    /// Scheduling-period boundaries crossed so far.
    pub fn periods_elapsed(&self) -> u64 {
        self.periods_elapsed
    }

    /// Non-empty batches handed to the offline scheduler so far.
    pub fn batches_scheduled(&self) -> u64 {
        self.batches_scheduled
    }

    /// Tasks buffered in the pending queue.
    pub fn pending_tasks(&self) -> usize {
        self.pending_tasks
    }

    /// True once [`OnlineDriver::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Live counters.
    pub fn metrics(&self) -> &RunMetrics {
        self.engine.metrics()
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &dsp_cluster::ClusterSpec {
        self.engine.cluster()
    }

    /// Submit a batch of job requests. All-or-nothing: either every job
    /// in the batch is admitted (ids returned, ascending) or none is.
    pub fn submit(&mut self, requests: Vec<JobRequest>) -> Result<Vec<JobId>, AdmitError> {
        if self.draining {
            return Err(AdmitError::Draining);
        }
        if requests.is_empty() {
            return Err(AdmitError::Invalid("empty submission batch".into()));
        }
        let new_tasks: usize = requests.iter().map(|r| r.tasks.len()).sum();
        if self.pending_tasks + new_tasks > self.admission.max_pending_tasks {
            return Err(AdmitError::Backpressure {
                pending_tasks: self.pending_tasks,
                limit: self.admission.max_pending_tasks,
            });
        }
        let arrival = self.now();
        let mut jobs = Vec::with_capacity(requests.len());
        for (k, req) in requests.into_iter().enumerate() {
            jobs.push(req.into_job(JobId(self.next_id + k as u32 * self.id_stride), arrival)?);
        }
        validate_jobs(&jobs).map_err(|e| AdmitError::Invalid(format!("{e:?}")))?;
        if self.admission.check_feasibility {
            check_feasible(&jobs, self.engine.cluster(), self.next_boundary)?;
        }
        let ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        self.next_id += jobs.len() as u32 * self.id_stride;
        self.pending_tasks += new_tasks;
        self.pending.extend(jobs);
        Ok(ids)
    }

    /// Where does `id` stand right now? `None` for ids never admitted.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        if self.pending.iter().any(|j| j.id == id) {
            return Some(JobStatus::Pending);
        }
        self.engine.job_progress(id).map(JobStatus::Active)
    }

    /// Inject a fault plan into the live engine (instants in the past are
    /// clamped to "now" by the engine).
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.engine.add_faults(plan);
    }

    /// Advance simulation time to `t`, crossing every scheduling-period
    /// boundary on the way: at each boundary the pending batch is
    /// scheduled onto the backlogged cluster and injected; between
    /// boundaries the engine runs its epoch preemption loop.
    pub fn advance_to(&mut self, t: Time) {
        while self.next_boundary <= t {
            let boundary = self.next_boundary;
            self.engine.step_until(self.policy.as_mut(), boundary);
            self.flush_pending_at(boundary);
            self.periods_elapsed += 1;
            self.next_boundary = boundary + self.sched_period;
        }
        self.engine.step_until(self.policy.as_mut(), t);
    }

    /// Schedule and inject the pending batch at instant `at` (a period
    /// boundary, or "now" during drain). No-op when the queue is empty.
    fn flush_pending_at(&mut self, at: Time) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        self.pending_tasks = 0;
        let schedule =
            self.planner.plan(self.scheduler.as_mut(), &batch, self.engine.cluster(), at);
        self.engine.add_jobs(batch);
        self.combined.assignments.extend_from_slice(&schedule.assignments);
        self.engine.add_batch(at, schedule);
        self.batches_scheduled += 1;
    }

    /// Stop admitting, flush the queue immediately, run the simulation
    /// dry, and return the final auditable snapshot. Equivalent to
    /// [`OnlineDriver::drain_with`] with a no-op observer.
    pub fn drain(&mut self) -> Snapshot {
        self.drain_with(&mut |_| {})
    }

    /// Drain incrementally: flush the queue, then advance boundary by
    /// boundary until the engine idles, calling `observe` after the flush
    /// and after every boundary so the server can publish intermediate
    /// snapshots — readers watching a long drain see `now`,
    /// `periods_elapsed`, and task counters move monotonically instead of
    /// one frozen pre-drain view. The event order (and therefore the
    /// final history, metrics, and schedule) is identical to a single
    /// `step_until(Time::MAX)`: slicing a `step_until` is exactly how
    /// [`OnlineDriver::advance_to`] already drives the engine.
    pub fn drain_with(&mut self, observe: &mut dyn FnMut(&OnlineDriver)) -> Snapshot {
        self.draining = true;
        let now = self.now();
        self.flush_pending_at(now);
        // Prime the engine before consulting `idle()`: batches staged on a
        // never-stepped engine are not yet counted as pending injections, so
        // without this step a drain issued before the first tick would report
        // idle and skip the simulation entirely.
        self.engine.step_until(self.policy.as_mut(), now);
        observe(self);
        while !self.engine.idle() {
            let before = self.now();
            let boundary = self.next_boundary;
            self.advance_to(boundary);
            if self.now() == before {
                // The engine clamped at `max_time` short of the next
                // boundary; run the tail dry in one final step.
                self.engine.step_until(self.policy.as_mut(), Time::MAX);
                observe(self);
                break;
            }
            observe(self);
        }
        self.snapshot()
    }

    /// The current auditable state: jobs injected so far, the merged
    /// offline plan, execution history, and live metrics. During a run
    /// the history contains incomplete tasks; after [`OnlineDriver::drain`]
    /// it is final. Each shard's drained artifact and each read-lane
    /// artifact is built here. The service's only other constructor of
    /// [`Snapshot`] is `Router::merge_snapshots`, which joins the shards'
    /// artifacts for every federated drain and every federated `snapshot`
    /// read. The jobs are cloned, but each shares its graph and levels
    /// with the engine's copy (copy-on-write).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cluster: self.engine.cluster().clone(),
            jobs: self.engine.jobs().to_vec(),
            schedule: self.combined.clone(),
            history: self.engine.history(),
            metrics: self.engine.metrics().clone(),
        }
    }

    /// A cheap change stamp over everything [`OnlineDriver::snapshot`]
    /// serializes: equal stamps across two instants mean the artifact
    /// would be byte-identical, so the publisher can reuse the previous
    /// `Arc` on quiet ticks. A republish copies the history and schedule
    /// rows and the statuses (O(tasks)) but no graph: jobs share theirs.
    pub fn change_stamp(&self) -> (u64, u64, u64) {
        (self.engine.events_processed(), self.batches_scheduled, u64::from(self.next_id))
    }

    /// Every known job's status, ascending id. Pending jobs always carry
    /// ids above every injected job (a flush empties the whole queue), so
    /// engine order followed by queue order is already sorted.
    pub fn statuses(&self) -> Vec<(JobId, JobStatus)> {
        let mut out = Vec::with_capacity(self.engine.jobs().len() + self.pending.len());
        for job in self.engine.jobs() {
            if let Some(progress) = self.engine.job_progress(job.id) {
                out.push((job.id, JobStatus::Active(progress)));
            }
        }
        out.extend(self.pending.iter().map(|j| (j.id, JobStatus::Pending)));
        out
    }

    /// Build the read lane's published view (see [`StateSnapshot`]).
    /// `version` is the publish sequence number; `artifact` is the
    /// auditable snapshot, passed in so the publisher can share one `Arc`
    /// across quiet ticks (same [`OnlineDriver::change_stamp`]).
    pub fn state_snapshot(&self, version: u64, artifact: Arc<Snapshot>) -> StateSnapshot {
        StateSnapshot::new(
            version,
            self.now(),
            self.next_boundary,
            self.periods_elapsed,
            self.batches_scheduled,
            self.pending_tasks,
            self.draining,
            self.engine.metrics().clone(),
            self.statuses(),
            artifact,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::uniform;
    use dsp_preempt::DspPolicy;
    use dsp_sched::DspListScheduler;
    use dsp_units::Mi;

    fn driver(max_pending: usize) -> OnlineDriver {
        let cfg = EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(24 * 3600) };
        let params = dsp_core::config::Params::default();
        OnlineDriver::new(
            uniform(4, 1000.0, 2),
            cfg,
            Dur::from_secs(300),
            Box::new(DspListScheduler::default()),
            Box::new(DspPolicy::new(params.dsp_params(true))),
            AdmissionConfig { max_pending_tasks: max_pending, check_feasibility: true },
        )
    }

    fn chain_request(n: usize, mi: f64, deadline: Option<Dur>) -> JobRequest {
        JobRequest {
            class: JobClass::Small,
            deadline,
            tasks: vec![TaskSpec::sized(mi); n],
            edges: (1..n as u32).map(|v| (v - 1, v)).collect(),
        }
    }

    #[test]
    fn jobs_flow_through_period_boundaries() {
        let mut d = driver(1000);
        let ids = d.submit(vec![chain_request(4, 500.0, None)]).unwrap();
        assert_eq!(ids, vec![JobId(0)]);
        assert_eq!(d.status(JobId(0)), Some(JobStatus::Pending));

        // Nothing is scheduled before the boundary...
        d.advance_to(Time::from_secs(299));
        assert_eq!(d.status(JobId(0)), Some(JobStatus::Pending));
        // ...and the batch goes live at it.
        d.advance_to(Time::from_secs(301));
        assert!(matches!(d.status(JobId(0)), Some(JobStatus::Active(_))));
        assert_eq!(d.batches_scheduled(), 1);

        // 4 chained 500 ms tasks finish well before the next boundary.
        d.advance_to(Time::from_secs(400));
        match d.status(JobId(0)) {
            Some(JobStatus::Active(p)) => assert!(p.completed, "{p:?}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn backpressure_sheds_oversized_batches() {
        let mut d = driver(6);
        d.submit(vec![chain_request(4, 100.0, None)]).unwrap();
        let err = d.submit(vec![chain_request(4, 100.0, None)]).unwrap_err();
        assert_eq!(err.reason(), "backpressure");
        // The queue drains at the boundary and capacity returns.
        d.advance_to(Time::from_secs(300));
        d.submit(vec![chain_request(4, 100.0, None)]).unwrap();
    }

    #[test]
    fn infeasible_deadline_is_rejected_before_queueing() {
        let mut d = driver(1000);
        // Critical path ~40 s, but the deadline lands before the first
        // boundary can even fire.
        let err = d.submit(vec![chain_request(40, 1000.0, Some(Dur::from_secs(10)))]).unwrap_err();
        assert_eq!(err.reason(), "infeasible");
        assert_eq!(d.pending_tasks(), 0, "rejected batch must not occupy the queue");
    }

    #[test]
    fn submissions_after_drain_are_refused() {
        let mut d = driver(1000);
        d.submit(vec![chain_request(3, 200.0, None)]).unwrap();
        let snap = d.drain();
        assert!(snap.verify().passes(), "{:?}", snap.verify());
        assert_eq!(snap.jobs.len(), 1);
        assert!(snap.history.tasks.iter().all(|t| t.completed));
        let err = d.submit(vec![chain_request(1, 100.0, None)]).unwrap_err();
        assert_eq!(err.reason(), "draining");
    }

    #[test]
    fn invalid_batches_are_all_or_nothing() {
        let mut d = driver(1000);
        let good = chain_request(2, 100.0, None);
        let bad = JobRequest {
            class: JobClass::Small,
            deadline: None,
            tasks: vec![TaskSpec::sized(100.0)],
            edges: vec![(0, 5)],
        };
        let err = d.submit(vec![good, bad]).unwrap_err();
        assert_eq!(err.reason(), "invalid");
        assert_eq!(d.pending_tasks(), 0);
        // Ids were not burned: the next admit still starts at 0.
        let ids = d.submit(vec![chain_request(1, 100.0, None)]).unwrap();
        assert_eq!(ids, vec![JobId(0)]);
    }

    #[test]
    fn id_lane_strides_and_drain_blocks_intake() {
        let mut d = driver(1000).with_id_lane(1, 4);
        let ids =
            d.submit(vec![chain_request(2, 100.0, None), chain_request(2, 100.0, None)]).unwrap();
        assert_eq!(ids, vec![JobId(1), JobId(5)]);
        let ids = d.submit(vec![chain_request(1, 100.0, None)]).unwrap();
        assert_eq!(ids, vec![JobId(9)]);
        // Already-admitted work runs dry under the same lane.
        let snap = d.drain();
        assert!(snap.verify().passes(), "{:?}", snap.verify());
        assert_eq!(snap.jobs.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![1, 5, 9]);
        assert!(d.is_draining());
        let err = d.submit(vec![chain_request(1, 100.0, None)]).unwrap_err();
        assert_eq!(err.reason(), "draining");
    }

    #[test]
    fn estimate_only_requests_still_admit() {
        let mut d = driver(1000);
        let mut req = chain_request(2, 100.0, None);
        req.tasks[0] = TaskSpec::sized(100.0).with_estimate(Mi::new(150.0));
        d.submit(vec![req]).unwrap();
        let snap = d.drain();
        assert!(snap.verify().passes());
    }
}
