//! The two-phase loop, assembled once (DESIGN.md §3.1): [`PeriodPlanner`]
//! plans each period's arrivals against the backlog and is the only caller
//! of `Scheduler::schedule_onto`; [`execute`] runs the planned batches and a
//! fault plan through one engine under the online policy and returns the
//! [`Run`]; [`Run::audit`] checks it against R1–R6. [`run_audited`], the
//! one product caller of [`execute`], does all three: `run_experiment` (so
//! every figure cell), every matrix cell and `dsp`'s run mode call it, and
//! `dsp_service::OnlineDriver` plans with [`PeriodPlanner`].

use crate::config::Params;
use crate::methods::SchedMethod;
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_metrics::RunMetrics;
use dsp_sched::Scheduler;
use dsp_sim::{Engine, ExecHistory, FaultPlan, PreemptPolicy, Schedule};
use dsp_units::{Dur, Time};
use dsp_verify::{Report, VerifyOptions};

/// The offline phase's memory between periods: the estimated instant each
/// node drains everything planned onto it so far.
#[derive(Debug, Clone)]
pub struct PeriodPlanner {
    busy_until: Vec<Time>,
}

impl PeriodPlanner {
    /// A planner over an idle `cluster`.
    pub fn new(cluster: &ClusterSpec) -> Self {
        PeriodPlanner { busy_until: vec![Time::ZERO; cluster.len()] }
    }

    /// Plan `batch` (one period's arrivals, ascending id) at instant `at`
    /// onto the backlogged `cluster`, and add the plan's estimated finishes
    /// to the backlog the next period sees.
    pub fn plan(
        &mut self,
        scheduler: &mut dyn Scheduler,
        batch: &[Job],
        cluster: &ClusterSpec,
        at: Time,
    ) -> Schedule {
        let schedule = scheduler.schedule_onto(batch, cluster, at, &self.busy_until);
        #[cfg(debug_assertions)]
        {
            let report = dsp_verify::check_coverage(&schedule, batch, cluster);
            debug_assert!(
                report.is_empty(),
                "scheduler broke R1 coverage for the batch planned at {at:?}:\n{report}"
            );
        }
        for a in &schedule.assignments {
            // A batch is one period's arrivals: a linear probe is fine. An
            // assignment naming a job outside it is an R1 finding for the
            // audit, not a reason to stop planning.
            if let Some(job) = batch.iter().find(|j| j.id == a.task.job) {
                let busy = &mut self.busy_until[a.node.idx()];
                *busy = (*busy).max(a.planned_finish(job, cluster));
            }
        }
        schedule
    }
}

/// Group jobs into scheduling periods and build one schedule batch per
/// period, as Section III prescribes ("executed offline after each unit of
/// time period"). Jobs arriving in period `p` are scheduled at the period's
/// end boundary.
pub fn periodic_schedules(
    jobs: &[Job],
    cluster: &ClusterSpec,
    period: Dur,
    scheduler: &mut dyn Scheduler,
) -> Vec<(Time, Schedule)> {
    let period_us = period.as_micros().max(1);
    let mut by_period: std::collections::BTreeMap<u64, Vec<Job>> = Default::default();
    for job in jobs {
        by_period.entry(job.arrival.as_micros() / period_us).or_default().push(job.clone());
    }
    let mut planner = PeriodPlanner::new(cluster);
    by_period
        .into_iter()
        .map(|(p, batch)| {
            let at = Time::from_micros((p + 1) * period_us);
            (at, planner.plan(scheduler, &batch, cluster, at))
        })
        .collect()
}

/// One executed run: what was planned, what happened, what it measured.
#[derive(Debug, Clone)]
pub struct Run {
    /// All period batches merged, in batch order.
    pub schedule: Schedule,
    /// Per-task execution accounting.
    pub history: ExecHistory,
    /// Headline metrics.
    pub metrics: RunMetrics,
}

impl Run {
    /// Audit the run, over the `jobs` and `cluster` it executed, against
    /// the full rule set: R1–R4 on the plan, R5–R6 on the history, and the
    /// history-vs-metrics overhead cross-check.
    pub fn audit(&self, jobs: &[Job], cluster: &ClusterSpec, opts: &VerifyOptions) -> Report {
        let metrics = Some(&self.metrics);
        dsp_verify::audit(&self.schedule, jobs, cluster, opts, &self.history, metrics)
    }
}

/// Run the two-phase loop over `jobs` (sorted by strictly increasing
/// `JobId`): the offline `scheduler` every [`Params::sched_period`], the
/// online `policy` every epoch of [`Params::engine`], under a deterministic
/// fault schedule ([`FaultPlan::none`] for the paper's setting).
pub fn execute(
    jobs: &[Job],
    cluster: &ClusterSpec,
    params: &Params,
    scheduler: &mut dyn Scheduler,
    policy: &mut dyn PreemptPolicy,
    faults: FaultPlan,
) -> Run {
    let mut engine = Engine::new(jobs.to_vec(), cluster.clone(), params.engine);
    let mut schedule = Schedule::new();
    for (at, batch) in periodic_schedules(jobs, cluster, params.sched_period, scheduler) {
        schedule.assignments.extend_from_slice(&batch.assignments);
        engine.add_batch(at, batch);
    }
    engine.add_faults(faults);
    let metrics = engine.run(policy);
    Run { schedule, history: engine.history(), metrics }
}

/// Run one experiment cell and audit it: `sched`'s scheduler (`seed` feeds
/// the random baseline) plans `jobs`, [`execute`] runs them on `cluster`
/// under `policy` and `faults`, and [`Run::audit`] holds the run to
/// [`SchedMethod::verify_options`].
pub fn run_audited(
    jobs: &[Job],
    cluster: &ClusterSpec,
    params: &Params,
    sched: SchedMethod,
    seed: u64,
    policy: &mut dyn PreemptPolicy,
    faults: FaultPlan,
) -> (Run, Report) {
    let mut scheduler = sched.build(params, seed);
    let run = execute(jobs, cluster, params, scheduler.as_mut(), policy, faults);
    let report = run.audit(jobs, cluster, &sched.verify_options());
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_sched::DspListScheduler;
    use dsp_sim::NoPreempt;
    use dsp_trace::{generate_workload, TraceParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(n: usize) -> Vec<Job> {
        let trace = TraceParams { task_scale: 0.02, ..TraceParams::default() };
        generate_workload(&mut StdRng::seed_from_u64(1), n, &trace)
    }

    #[test]
    fn periodic_batches_split_by_arrival() {
        // ~3/min over 12 jobs ≈ 4 minutes of arrivals → with 1-minute
        // periods there must be several batches.
        let jobs = workload(12);
        let cluster = dsp_cluster::ec2();
        let mut sched = DspListScheduler::default();
        let batches = periodic_schedules(&jobs, &cluster, Dur::from_secs(60), &mut sched);
        assert!(batches.len() > 1);
        let total: usize = batches.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, jobs.iter().map(|j| j.num_tasks()).sum::<usize>());
        // Batch instants are period boundaries strictly after the arrivals
        // they cover.
        for (at, s) in &batches {
            assert_eq!(at.as_micros() % 60_000_000, 0);
            assert!(s.assignments.iter().all(|a| a.start >= *at));
        }
    }

    #[test]
    fn a_run_carries_its_plan_and_audits_clean() {
        let jobs = workload(6);
        let cluster = dsp_cluster::ec2();
        let params = Params { sched_period: Dur::from_secs(60), ..Params::default() };
        let mut sched = DspListScheduler::default();
        let run = execute(&jobs, &cluster, &params, &mut sched, &mut NoPreempt, FaultPlan::none());
        let planned: Vec<_> = periodic_schedules(&jobs, &cluster, params.sched_period, &mut sched)
            .into_iter()
            .flat_map(|(_, s)| s.assignments)
            .collect();
        assert_eq!(run.schedule.assignments, planned);
        assert_eq!(run.history.tasks.len(), planned.len());
        assert_eq!(run.metrics.jobs_completed(), 6);
        let report = run.audit(&jobs, &cluster, &VerifyOptions::default());
        assert!(report.passes(), "{report}");
    }

    #[test]
    fn sparse_job_ids_run_end_to_end() {
        // The service assigns ids across batches, so `jobs[i].id` need not
        // equal `JobId(i)` — only monotonicity is required. Renumber a
        // workload onto ids 3, 10, 11, ... and everything must still run.
        let dense = workload(4);
        let sparse: Vec<Job> = dense
            .iter()
            .zip([3u32, 10, 11, 40])
            .map(|(j, id)| {
                let mut j = j.clone();
                j.id = dsp_dag::JobId(id);
                j
            })
            .collect();
        let cluster = dsp_cluster::ec2();
        let params = Params::default();
        let run = |jobs: &[Job]| {
            let mut sched = DspListScheduler::default();
            let mut policy = dsp_preempt::DspPolicy::new(params.dsp_params(true));
            execute(jobs, &cluster, &params, &mut sched, &mut policy, FaultPlan::none()).metrics
        };
        let a = run(&dense);
        let b = run(&sparse);
        assert_eq!(b.jobs_completed(), 4);
        // Ids are labels, not indices: the renumbered run is identical.
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.makespan(), b.makespan());
    }
}
