//! Raw per-run counters and the derived headline metrics.

use dsp_units::{Dur, Time};

/// Completion record for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Submission instant.
    pub arrival: Time,
    /// Completion instant of the last task.
    pub finish: Time,
    /// The job's deadline.
    pub deadline: Time,
    /// Mean queue-waiting time of the job's tasks.
    pub mean_task_wait: Dur,
    /// Number of tasks in the job.
    pub tasks: usize,
}

impl JobOutcome {
    /// Did the job complete by its deadline?
    pub fn met_deadline(&self) -> bool {
        self.finish <= self.deadline
    }
}

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Tasks that ran to completion.
    pub tasks_completed: u64,
    /// Total preemptions performed (`N^p` summed over tasks).
    pub preemptions: u64,
    /// Dispatches inconsistent with the dependency order.
    pub disorders: u64,
    /// Dependency-violating preemption attempts that were refused without
    /// evicting anyone (restart-from-scratch policies only — evicting for
    /// them would livelock; see `dsp-sim::engine::apply_action`).
    pub refusals: u64,
    /// Total context-switch / recovery time paid, summed over preemptions.
    pub switch_overhead: Dur,
    /// Per-job outcomes, pushed as jobs finish.
    pub jobs: Vec<JobOutcome>,
    /// Instant the last observed event happened (simulation end).
    pub end_time: Time,
    /// Earliest task start (for the paper's makespan definition
    /// `max completion − min start`, constraint (4)).
    pub first_start: Option<Time>,
    /// Node-failure events observed (fault injection).
    pub node_failures: u64,
    /// Tasks killed and rescheduled by faults (crashes and slowdowns).
    pub fault_rescheduled: u64,
}

impl RunMetrics {
    /// Record a task dispatch; `start` updates the makespan window.
    pub fn on_task_start(&mut self, start: Time) {
        self.first_start = Some(match self.first_start {
            Some(t) => t.min(start),
            None => start,
        });
    }

    /// Record a task completion at `at`.
    pub fn on_task_finish(&mut self, at: Time) {
        self.tasks_completed += 1;
        self.end_time = self.end_time.max(at);
    }

    /// Record a preemption and its recovery overhead.
    pub fn on_preemption(&mut self, overhead: Dur) {
        self.preemptions += 1;
        self.switch_overhead += overhead;
    }

    /// Record a dependency-inconsistent dispatch that still evicted its
    /// victim (checkpointing policies pay for their blindness).
    pub fn on_disorder(&mut self) {
        self.disorders += 1;
    }

    /// Record a dependency-inconsistent attempt refused outright.
    pub fn on_refusal(&mut self) {
        self.disorders += 1;
        self.refusals += 1;
    }

    /// Record a node failure and how many tasks it displaced.
    pub fn on_node_fault(&mut self, displaced: usize) {
        self.node_failures += 1;
        self.fault_rescheduled += displaced as u64;
    }

    /// Record a finished job.
    pub fn on_job_finish(&mut self, outcome: JobOutcome) {
        self.end_time = self.end_time.max(outcome.finish);
        self.jobs.push(outcome);
    }

    /// Makespan per the paper's constraint (4): latest completion minus
    /// earliest start. Zero when nothing ran.
    pub fn makespan(&self) -> Dur {
        match self.first_start {
            Some(first) => self.end_time.since(first),
            None => Dur::ZERO,
        }
    }

    /// Throughput in completed tasks per millisecond of makespan.
    pub fn throughput_tasks_per_ms(&self) -> f64 {
        let ms = self.makespan().as_millis_f64();
        if ms <= 0.0 {
            0.0
        } else {
            self.tasks_completed as f64 / ms
        }
    }

    /// Throughput in deadline-meeting jobs per second of makespan — the
    /// paper's Section III definition ("jobs that complete … within their
    /// job deadlines during a unit of time").
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        let s = self.makespan().as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.met_deadline()).count() as f64 / s
    }

    /// Mean over jobs of the job's mean task waiting time (Fig. 6c/7c).
    pub fn avg_job_waiting(&self) -> Dur {
        if self.jobs.is_empty() {
            return Dur::ZERO;
        }
        let total: u64 = self.jobs.iter().map(|j| j.mean_task_wait.as_micros()).sum();
        Dur::from_micros(total / self.jobs.len() as u64)
    }

    /// Fraction of finished jobs that met their deadline.
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.met_deadline()).count() as f64 / self.jobs.len() as f64
    }

    /// Number of finished jobs.
    pub fn jobs_completed(&self) -> usize {
        self.jobs.len()
    }

    /// Percentile of per-job mean task waits (p ∈ [0, 100], nearest-rank).
    /// Zero when no job finished. Complements [`RunMetrics::avg_job_waiting`]
    /// for tail analysis (the paper reports means only).
    pub fn wait_percentile(&self, p: f64) -> Dur {
        if self.jobs.is_empty() {
            return Dur::ZERO;
        }
        let mut waits: Vec<u64> = self.jobs.iter().map(|j| j.mean_task_wait.as_micros()).collect();
        waits.sort_unstable();
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * waits.len() as f64).ceil() as usize;
        Dur::from_micros(waits[rank.saturating_sub(1).min(waits.len() - 1)])
    }

    /// Fold another run's counters into this one — used by the federated
    /// service to merge per-shard drain metrics into one cluster-wide view
    /// (DESIGN.md §10.7). Counters add, the makespan window widens to cover
    /// both runs, and job outcomes concatenate in call order (callers merge
    /// shards in index order for determinism).
    pub fn merge_from(&mut self, other: &RunMetrics) {
        self.tasks_completed += other.tasks_completed;
        self.preemptions += other.preemptions;
        self.disorders += other.disorders;
        self.refusals += other.refusals;
        self.switch_overhead += other.switch_overhead;
        self.jobs.extend(other.jobs.iter().copied());
        self.end_time = self.end_time.max(other.end_time);
        self.first_start = match (self.first_start, other.first_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.node_failures += other.node_failures;
        self.fault_rescheduled += other.fault_rescheduled;
    }

    /// Preemption *attempts*: successful evictions plus dependency-refused
    /// ones (disorders). This is the quantity comparable to the paper's
    /// Fig. 6(d) — in the authors' testbed a dependency-violating
    /// preemption still evicts its victim and then surfaces as a disorder,
    /// whereas our engine refuses the eviction up front (see
    /// `dsp-sim::engine`); the attempt count is the same either way.
    pub fn preemption_attempts(&self) -> u64 {
        // Evictions (which include the dependency-violating ones for
        // checkpointing policies) plus the refused-without-eviction
        // attempts; no double counting.
        self.preemptions + self.refusals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(arr: u64, fin: u64, dl: u64, wait_ms: u64) -> JobOutcome {
        JobOutcome {
            arrival: Time::from_secs(arr),
            finish: Time::from_secs(fin),
            deadline: Time::from_secs(dl),
            mean_task_wait: Dur::from_millis(wait_ms),
            tasks: 10,
        }
    }

    #[test]
    fn makespan_is_window_between_first_start_and_last_finish() {
        let mut m = RunMetrics::default();
        m.on_task_start(Time::from_secs(2));
        m.on_task_start(Time::from_secs(1));
        m.on_task_finish(Time::from_secs(9));
        m.on_task_finish(Time::from_secs(4));
        assert_eq!(m.makespan(), Dur::from_secs(8));
        assert_eq!(m.tasks_completed, 2);
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let m = RunMetrics::default();
        assert_eq!(m.makespan(), Dur::ZERO);
        assert_eq!(m.throughput_tasks_per_ms(), 0.0);
        assert_eq!(m.avg_job_waiting(), Dur::ZERO);
        assert_eq!(m.deadline_hit_rate(), 0.0);
    }

    #[test]
    fn throughput_is_tasks_over_makespan_ms() {
        let mut m = RunMetrics::default();
        m.on_task_start(Time::ZERO);
        for _ in 0..100 {
            m.on_task_finish(Time::from_millis(50));
        }
        assert!((m.throughput_tasks_per_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn job_throughput_counts_only_deadline_hits() {
        let mut m = RunMetrics::default();
        m.on_task_start(Time::ZERO);
        m.on_job_finish(outcome(0, 10, 20, 5)); // met
        m.on_job_finish(outcome(0, 10, 5, 5)); // missed
        assert_eq!(m.deadline_hit_rate(), 0.5);
        assert!((m.throughput_jobs_per_sec() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn avg_job_waiting_averages_over_jobs() {
        let mut m = RunMetrics::default();
        m.on_job_finish(outcome(0, 1, 10, 100));
        m.on_job_finish(outcome(0, 2, 10, 300));
        assert_eq!(m.avg_job_waiting(), Dur::from_millis(200));
    }

    #[test]
    fn wait_percentiles_nearest_rank() {
        let mut m = RunMetrics::default();
        for w in [100u64, 200, 300, 400] {
            m.on_job_finish(outcome(0, 1, 10, w));
        }
        assert_eq!(m.wait_percentile(50.0), Dur::from_millis(200));
        assert_eq!(m.wait_percentile(100.0), Dur::from_millis(400));
        assert_eq!(m.wait_percentile(0.0), Dur::from_millis(100));
        assert_eq!(m.wait_percentile(99.0), Dur::from_millis(400));
        assert_eq!(RunMetrics::default().wait_percentile(50.0), Dur::ZERO);
    }

    #[test]
    fn merge_widens_window_and_sums_counters() {
        let mut a = RunMetrics::default();
        a.on_task_start(Time::from_secs(5));
        a.on_task_finish(Time::from_secs(9));
        a.on_preemption(Dur::from_millis(20));
        a.on_job_finish(outcome(0, 9, 20, 100));

        let mut b = RunMetrics::default();
        b.on_task_start(Time::from_secs(1));
        b.on_task_finish(Time::from_secs(6));
        b.on_job_finish(outcome(0, 6, 4, 300));
        b.on_node_fault(3);

        a.merge_from(&b);
        assert_eq!(a.tasks_completed, 2);
        assert_eq!(a.preemptions, 1);
        assert_eq!(a.makespan(), Dur::from_secs(8)); // 1s..9s
        assert_eq!(a.jobs.len(), 2);
        assert_eq!(a.node_failures, 1);
        assert_eq!(a.fault_rescheduled, 3);
        assert_eq!(a.deadline_hit_rate(), 0.5);

        let mut empty = RunMetrics::default();
        empty.merge_from(&RunMetrics::default());
        assert_eq!(empty, RunMetrics::default());
    }

    #[test]
    fn preemption_and_disorder_counters() {
        let mut m = RunMetrics::default();
        m.on_preemption(Dur::from_millis(20));
        m.on_preemption(Dur::from_millis(30));
        m.on_disorder();
        assert_eq!(m.preemptions, 2);
        assert_eq!(m.disorders, 1);
        assert_eq!(m.switch_overhead, Dur::from_millis(50));
    }
}
