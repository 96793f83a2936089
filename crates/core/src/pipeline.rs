//! The two-phase loop, assembled once (DESIGN.md §3.1). [`PeriodPlanner`]
//! plans each period's arrivals against the backlog and is the only caller
//! of `Scheduler::schedule_onto`. A [`Plan`] is the offline phase as a
//! value: the period batches, their merge, and the merge's R1–R4 audit,
//! made once per workload and scheduler. [`execute`] runs a plan and a
//! fault plan through one engine under the online policy and returns the
//! [`Run`]; its one product caller, [`Plan::run_audited`], follows the
//! plan's R1–R4 findings with R5–R6 on the run. [`run_audited`] is a plan
//! and one audited run of it: `run_experiment` (so every figure cell) and
//! `dsp`'s run mode call it, `run_matrix` plans each (scenario, scheduler)
//! once and runs every preemption arm from that plan, and
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

/// The offline phase of one workload, as a value: what the scheduler
/// planned each period, the merged plan, and the plan's R1–R4 audit. The
/// planner plans against its own estimated backlog, so a plan depends on
/// neither the online policy nor the faults: one plan serves every run of
/// its workload and scheduler, and is audited once.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// One batch per scheduling period: the period's end boundary and the
    /// schedule planned there ([`periodic_schedules`]).
    pub batches: Vec<(Time, Schedule)>,
    /// All period batches merged, in batch order.
    pub schedule: Schedule,
    /// R1–R4 over `schedule`.
    pub report: Report,
}

impl Plan {
    /// Plan `jobs` on `cluster` with `scheduler` every `period`, and audit
    /// the merged plan against R1–R4 under `opts`.
    pub fn new(
        jobs: &[Job],
        cluster: &ClusterSpec,
        period: Dur,
        scheduler: &mut dyn Scheduler,
        opts: &VerifyOptions,
    ) -> Plan {
        let batches = periodic_schedules(jobs, cluster, period, scheduler);
        let mut schedule = Schedule::new();
        for (_, batch) in &batches {
            schedule.assignments.extend_from_slice(&batch.assignments);
        }
        let report = dsp_verify::check_schedule(&schedule, jobs, cluster, opts);
        Plan { batches, schedule, report }
    }

    /// `sched`'s plan every [`Params::sched_period`]: the method table
    /// builds its scheduler (`seed` feeds the random baseline) and the audit
    /// takes [`SchedMethod::verify_options`].
    pub fn of(
        jobs: &[Job],
        cluster: &ClusterSpec,
        params: &Params,
        sched: SchedMethod,
        seed: u64,
    ) -> Plan {
        let mut scheduler = sched.build(params, seed);
        Plan::new(jobs, cluster, params.sched_period, scheduler.as_mut(), &sched.verify_options())
    }

    /// An audited run of the plan: [`execute`] under `policy` and `faults`,
    /// and the plan's R1–R4 findings followed by R5–R6 on the history (with
    /// the history-vs-metrics overhead cross-check), the findings
    /// `dsp_verify::audit` gives for the run.
    pub fn run_audited(
        &self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        params: &Params,
        policy: &mut dyn PreemptPolicy,
        faults: FaultPlan,
    ) -> (Run, Report) {
        let run = execute(self, jobs, cluster, params, policy, faults);
        let mut report = self.report.clone();
        report.merge(dsp_verify::check_execution(&run.history, Some(&run.metrics)));
        (run, report)
    }
}

/// One executed run: what was planned, what happened, what it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// All period batches merged, in batch order.
    pub schedule: Schedule,
    /// Per-task execution accounting.
    pub history: ExecHistory,
    /// Headline metrics.
    pub metrics: RunMetrics,
}

/// Run the online phase of the two-phase loop: `plan`'s batches over `jobs`
/// (sorted by strictly increasing `JobId`), each injected at its period
/// boundary, the online `policy` every epoch of [`Params::engine`], under a
/// deterministic fault schedule ([`FaultPlan::none`] for the paper's
/// setting).
pub fn execute(
    plan: &Plan,
    jobs: &[Job],
    cluster: &ClusterSpec,
    params: &Params,
    policy: &mut dyn PreemptPolicy,
    faults: FaultPlan,
) -> Run {
    let mut engine = Engine::new(jobs.to_vec(), cluster.clone(), params.engine);
    for (at, batch) in &plan.batches {
        engine.add_batch(*at, batch.clone());
    }
    engine.add_faults(faults);
    let metrics = engine.run(policy);
    Run { schedule: plan.schedule.clone(), history: engine.history(), metrics }
}

/// Run one experiment cell and audit it: [`Plan::of`] plans `jobs` with
/// `sched`'s scheduler (`seed` feeds the random baseline), and
/// [`Plan::run_audited`] runs the plan on `cluster` under `policy` and
/// `faults`, its report held to [`SchedMethod::verify_options`].
pub fn run_audited(
    jobs: &[Job],
    cluster: &ClusterSpec,
    params: &Params,
    sched: SchedMethod,
    seed: u64,
    policy: &mut dyn PreemptPolicy,
    faults: FaultPlan,
) -> (Run, Report) {
    Plan::of(jobs, cluster, params, sched, seed).run_audited(jobs, cluster, params, policy, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::PreemptMethod;
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
        let opts = VerifyOptions::default();
        let plan = Plan::new(&jobs, &cluster, params.sched_period, &mut sched, &opts);
        let planned: Vec<_> = periodic_schedules(&jobs, &cluster, params.sched_period, &mut sched)
            .into_iter()
            .flat_map(|(_, s)| s.assignments)
            .collect();
        assert_eq!(plan.schedule.assignments, planned);
        let (run, report) =
            plan.run_audited(&jobs, &cluster, &params, &mut NoPreempt, FaultPlan::none());
        assert_eq!(run.schedule.assignments, planned);
        assert_eq!(run.history.tasks.len(), planned.len());
        assert_eq!(run.metrics.jobs_completed(), 6);
        assert!(report.passes(), "{report}");
    }

    #[test]
    fn one_plan_runs_as_often_as_a_fresh_one() {
        // A plan depends on neither the policy nor the faults: each run of
        // one plan is the run and report of a fresh `run_audited`, and
        // running leaves the plan as it was.
        let jobs = workload(6);
        let cluster = dsp_cluster::ec2();
        let params = Params::default();
        let sched = SchedMethod::Dsp;
        let plan = Plan::of(&jobs, &cluster, &params, sched, 0);
        let before = plan.clone();
        let storm = FaultPlan::none()
            .crash(dsp_cluster::NodeId(1), Time::from_secs(120), Time::from_secs(300))
            .straggle(dsp_cluster::NodeId(4), Time::from_secs(60), 0.5);
        let arms = [
            (PreemptMethod::Dsp, FaultPlan::none()),
            (PreemptMethod::Srpt, FaultPlan::none()),
            (PreemptMethod::Dsp, storm),
        ];
        for (preempt, faults) in arms {
            let shared = plan.run_audited(
                &jobs,
                &cluster,
                &params,
                preempt.build(&params).as_mut(),
                faults.clone(),
            );
            let fresh = run_audited(
                &jobs,
                &cluster,
                &params,
                sched,
                0,
                preempt.build(&params).as_mut(),
                faults,
            );
            assert_eq!(shared, fresh, "{}", preempt.name());
        }
        assert_eq!(plan, before, "running a plan must not change it");
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
            let opts = VerifyOptions::default();
            let plan = Plan::new(jobs, &cluster, params.sched_period, &mut sched, &opts);
            let mut policy = dsp_preempt::DspPolicy::new(params.dsp_params(true));
            execute(&plan, jobs, &cluster, &params, &mut policy, FaultPlan::none()).metrics
        };
        let a = run(&dense);
        let b = run(&sparse);
        assert_eq!(b.jobs_completed(), 4);
        // Ids are labels, not indices: the renumbered run is identical.
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.makespan(), b.makespan());
    }
}
