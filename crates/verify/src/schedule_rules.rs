//! Static rules over a planned [`Schedule`]: R1 coverage, R2 precedence,
//! R3 slot capacity, R4 deadline feasibility.
//!
//! All timing rules reason in the *estimated* timeline the offline
//! schedulers plan in: a task placed on node `k` at `t^s` is estimated to
//! finish at `t^s + l̂/g(k)` (Eq. 2 over the scheduler's size estimate).
//! That is exactly the arithmetic `dsp-sched`'s packing simulations use, so
//! a dependency-aware scheduler's output satisfies R2/R3 to the microsecond.

use crate::diag::{Diagnostic, Report, Rule, Severity};
use crate::VerifyOptions;
use dsp_cluster::ClusterSpec;
use dsp_dag::{level_deadlines, Job, JobId, TaskId};
use dsp_sim::{Assignment, Schedule};
use dsp_units::Time;

/// R1 alone: every task of every job appears exactly once, on a real node.
/// This is the single source of truth behind
/// `dsp_sched::api::schedule_covers_jobs`.
pub fn check_coverage(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec) -> Report {
    coverage(s, jobs, &JobsById::new(jobs), cluster)
}

/// The jobs ordered by id (stably: jobs sharing an id keep their order),
/// so a job is found by bisection instead of a scan of the batch per
/// assignment — and without a map to build for a three-task instance.
struct JobsById<'a>(Vec<&'a Job>);

impl<'a> JobsById<'a> {
    fn new(jobs: &'a [Job]) -> Self {
        let mut sorted: Vec<&Job> = jobs.iter().collect();
        sorted.sort_by_key(|j| j.id);
        JobsById(sorted)
    }

    /// The first job carrying `id`, as a scan of the batch would find it.
    fn first(&self, id: JobId) -> Option<&'a Job> {
        let at = self.0.partition_point(|j| j.id < id);
        self.0.get(at).copied().filter(|j| j.id == id)
    }

    /// The last job carrying `id`, as a map collected from the batch holds.
    fn last(&self, id: JobId) -> Option<&'a Job> {
        let after = self.0.partition_point(|j| j.id <= id);
        self.0[..after].last().copied().filter(|j| j.id == id)
    }
}

fn coverage(s: &Schedule, jobs: &[Job], by_id: &JobsById, cluster: &ClusterSpec) -> Report {
    let mut report = Report::default();
    for a in &s.assignments {
        if a.node.idx() >= cluster.len() {
            report.push(Diagnostic {
                rule: Rule::Coverage,
                severity: Severity::Error,
                task: Some(a.task),
                node: Some(a.node),
                at: Some(a.start),
                message: format!(
                    "assigned to node {} but the cluster has only {} nodes",
                    a.node.idx(),
                    cluster.len()
                ),
            });
        }
        match by_id.first(a.task.job) {
            None => report.push(Diagnostic {
                rule: Rule::Coverage,
                severity: Severity::Error,
                task: Some(a.task),
                node: Some(a.node),
                at: Some(a.start),
                message: format!("job {} is not in the batch", a.task.job),
            }),
            Some(job) if a.task.idx() >= job.num_tasks() => report.push(Diagnostic {
                rule: Rule::Coverage,
                severity: Severity::Error,
                task: Some(a.task),
                node: Some(a.node),
                at: Some(a.start),
                message: format!(
                    "task index {} out of range (job has {} tasks)",
                    a.task.idx(),
                    job.num_tasks()
                ),
            }),
            Some(_) => {}
        }
    }
    // Each assignment's task beside its position, ordered by task: a task's
    // assignments are one run, its first assignment first in the run.
    let mut by_task: Vec<(TaskId, usize)> =
        s.assignments.iter().enumerate().map(|(at, a)| (a.task, at)).collect();
    by_task.sort_unstable();
    let mut repeated: Vec<(usize, TaskId, usize)> = by_task
        .chunk_by(|x, y| x.0 == y.0)
        .filter(|run| run.len() > 1)
        .map(|run| (run[0].1, run[0].0, run.len()))
        .collect();
    // Findings in first-assignment order.
    repeated.sort_unstable();
    for (_, task, n) in repeated {
        report.push(Diagnostic {
            rule: Rule::Coverage,
            severity: Severity::Error,
            task: Some(task),
            node: None,
            at: None,
            message: format!("assigned {n} times (must be exactly once)"),
        });
    }
    // A job's assignments are one run of `by_task`, in index order: walk it
    // beside the job's task indices.
    for job in jobs {
        let from = by_task.partition_point(|&(task, _)| task.job < job.id);
        let mut placed = by_task[from..].iter().take_while(|(task, _)| task.job == job.id);
        let mut next = placed.next();
        for v in 0..job.num_tasks() as u32 {
            while next.is_some_and(|(task, _)| task.index < v) {
                next = placed.next();
            }
            if next.is_none_or(|(task, _)| task.index != v) {
                let id = job.task_id(v);
                report.push(Diagnostic {
                    rule: Rule::Coverage,
                    severity: Severity::Error,
                    task: Some(id),
                    node: None,
                    at: None,
                    message: "never assigned".into(),
                });
            }
        }
    }
    report
}

/// The schedule's assignments ordered by the job id they name (stably:
/// schedule order within a job) — so "the last assignment wins" and the
/// order of findings read as a scan of the whole schedule per job would,
/// at one sort of it instead of one pass per job.
struct ByJob<'a>(Vec<&'a Assignment>);

impl<'a> ByJob<'a> {
    fn new(s: &'a Schedule) -> Self {
        let mut sorted: Vec<&Assignment> = s.assignments.iter().collect();
        sorted.sort_by_key(|a| a.task.job);
        ByJob(sorted)
    }

    /// Every assignment naming `id`, in schedule order.
    fn of(&self, id: JobId) -> &[&'a Assignment] {
        let from = self.0.partition_point(|a| a.task.job < id);
        let to = self.0.partition_point(|a| a.task.job <= id);
        &self.0[from..to]
    }
}

/// R2: along every DAG edge `(u, v)`, the child's planned start must not
/// precede the parent's planned finish.
fn check_precedence(
    by_job: &ByJob,
    jobs: &[Job],
    cluster: &ClusterSpec,
    opts: &VerifyOptions,
    report: &mut Report,
) {
    let severity = if opts.dependency_aware { Severity::Error } else { Severity::Warning };
    for job in jobs {
        // Planned (start, finish) per task index. Last assignment wins on
        // duplicates; R1 already reported those.
        let mut placed: Vec<Option<(Time, Time)>> = vec![None; job.num_tasks()];
        for a in by_job.of(job.id) {
            if a.task.idx() < job.num_tasks() && a.node.idx() < cluster.len() {
                let finish = a.planned_finish(job, cluster);
                placed[a.task.idx()] = Some((a.start, finish));
            }
        }
        for (u, v) in job.dag.edges() {
            let (Some((_, parent_finish)), Some((sv, _))) =
                (placed[u as usize], placed[v as usize])
            else {
                continue;
            };
            if sv < parent_finish {
                report.push(Diagnostic {
                    rule: Rule::Precedence,
                    severity,
                    task: Some(job.task_id(v)),
                    node: None,
                    at: Some(sv),
                    message: format!(
                        "starts at {:.3}s before parent {} finishes at {:.3}s",
                        sv.as_secs_f64(),
                        job.task_id(u),
                        parent_finish.as_secs_f64()
                    ),
                });
            }
        }
    }
}

/// R3: sweep each node's planned intervals `[t^s, t^s + l̂/g(k))`; the
/// number of overlapping intervals must never exceed the node's slots.
/// Intervals are half-open, so a departure frees its slot to an arrival at
/// the same instant — the packing simulations' exact semantics.
fn check_capacity(s: &Schedule, by_id: &JobsById, cluster: &ClusterSpec, report: &mut Report) {
    // Per node: (time, delta, task) events; at equal times departures
    // (delta = -1) sort before arrivals.
    let mut events: Vec<Vec<(Time, i32, TaskId)>> = vec![Vec::new(); cluster.len()];
    for a in &s.assignments {
        let Some(job) = by_id.last(a.task.job) else { continue };
        if a.task.idx() >= job.num_tasks() || a.node.idx() >= cluster.len() {
            continue;
        }
        let finish = a.planned_finish(job, cluster);
        events[a.node.idx()].push((a.start, 1, a.task));
        events[a.node.idx()].push((finish, -1, a.task));
    }
    for (n, evs) in events.iter_mut().enumerate() {
        evs.sort_by_key(|&(t, delta, _)| (t, delta));
        let slots = cluster.nodes[n].slots as i32;
        let mut load = 0i32;
        let mut reported = false;
        for &(t, delta, task) in evs.iter() {
            load += delta;
            if load > slots && !reported {
                report.push(Diagnostic {
                    rule: Rule::Capacity,
                    severity: Severity::Error,
                    task: Some(task),
                    node: Some(cluster.nodes[n].id),
                    at: Some(t),
                    message: format!("{load} tasks planned concurrently on a {slots}-slot node"),
                });
                // One finding per node: the first oversubscribed instant.
                reported = true;
            }
        }
    }
}

/// R4: Eq. 5 feasibility — every task's planned finish meets its
/// level-propagated deadline (computed, as everywhere in the workspace,
/// from estimates at the cluster's mean rate). Deadline misses are
/// warnings: the paper treats deadlines as soft targets the online phase
/// chases, not as admission constraints.
fn check_deadlines(by_job: &ByJob, jobs: &[Job], cluster: &ClusterSpec, report: &mut Report) {
    let mean = cluster.mean_rate();
    for job in jobs {
        let exec = job.exec_estimates(mean);
        let deadlines = level_deadlines(&job.dag, job.levels(), job.deadline, &exec);
        for a in by_job.of(job.id) {
            if a.task.idx() >= job.num_tasks() || a.node.idx() >= cluster.len() {
                continue;
            }
            let finish = a.planned_finish(job, cluster);
            let deadline = deadlines[a.task.idx()];
            if finish > deadline {
                report.push(Diagnostic {
                    rule: Rule::Deadline,
                    severity: Severity::Warning,
                    task: Some(a.task),
                    node: Some(a.node),
                    at: Some(a.start),
                    message: format!(
                        "planned finish {:.3}s misses the level deadline {:.3}s",
                        finish.as_secs_f64(),
                        deadline.as_secs_f64()
                    ),
                });
            }
        }
    }
}

/// Run R1–R4 over a planned schedule.
pub fn check_schedule(
    s: &Schedule,
    jobs: &[Job],
    cluster: &ClusterSpec,
    opts: &VerifyOptions,
) -> Report {
    let by_id = JobsById::new(jobs);
    let mut report = coverage(s, jobs, &by_id, cluster);
    let by_job = ByJob::new(s);
    check_precedence(&by_job, jobs, cluster, opts, &mut report);
    check_capacity(s, &by_id, cluster, &mut report);
    if opts.check_deadlines {
        check_deadlines(&by_job, jobs, cluster, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::{uniform, NodeId};
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    /// One 2-task chain job (1000 MI each) on a given deadline.
    fn chain_job(deadline: Time) -> Job {
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).expect("edge");
        Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            deadline,
            vec![TaskSpec::sized(1000.0); 2],
            dag,
        )
    }

    /// A valid chain plan on one 1000-MIPS node: t=0s and t=1s.
    fn valid_chain() -> (Vec<Job>, ClusterSpec, Schedule) {
        let jobs = vec![chain_job(Time::from_secs(100))];
        let cluster = uniform(1, 1000.0, 1);
        let mut s = Schedule::new();
        s.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        s.assign(jobs[0].task_id(1), NodeId(0), Time::from_secs(1));
        (jobs, cluster, s)
    }

    #[test]
    fn valid_schedule_is_clean() {
        let (jobs, cluster, s) = valid_chain();
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn missing_task_fires_r1() {
        let (jobs, cluster, mut s) = valid_chain();
        s.assignments.pop();
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(r.fired(Rule::Coverage));
        assert!(!r.passes());
    }

    #[test]
    fn unknown_job_fires_r1() {
        let (jobs, cluster, mut s) = valid_chain();
        s.assign(TaskId::new(7, 0), NodeId(0), Time::from_secs(9));
        let r = check_coverage(&s, &jobs, &cluster);
        assert!(r.fired(Rule::Coverage));
    }

    #[test]
    fn repeated_tasks_are_reported_in_first_assignment_order() {
        let job = |id| {
            let tasks = vec![TaskSpec::sized(10.0); 4];
            Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::MAX, tasks, Dag::new(4))
        };
        let jobs = vec![job(0), job(1)];
        let cluster = uniform(1, 1000.0, 4);
        let mut s = Schedule::new();
        let order = [(1, 2), (0, 1), (1, 0), (0, 0), (0, 1), (1, 2), (0, 2), (0, 1), (1, 0)];
        for (at, &(job, index)) in order.iter().enumerate() {
            s.assign(TaskId::new(job, index), NodeId(0), Time::from_secs(at as u64));
        }
        let report = check_coverage(&s, &jobs, &cluster);
        let findings: Vec<(TaskId, &str)> =
            report.iter().map(|d| (d.task.expect("a task"), d.message.as_str())).collect();
        let twice = "assigned 2 times (must be exactly once)";
        let thrice = "assigned 3 times (must be exactly once)";
        let want = [
            (TaskId::new(1, 2), twice),
            (TaskId::new(0, 1), thrice),
            (TaskId::new(1, 0), twice),
            (TaskId::new(0, 3), "never assigned"),
            (TaskId::new(1, 1), "never assigned"),
            (TaskId::new(1, 3), "never assigned"),
        ];
        assert_eq!(findings, want);
    }

    #[test]
    fn start_before_parent_finish_fires_r2() {
        // Two nodes so the early child violates only precedence, not slots.
        let jobs = vec![chain_job(Time::from_secs(100))];
        let cluster = uniform(2, 1000.0, 1);
        let mut s = Schedule::new();
        // Parent runs [0, 1s) on node 0; the child starts inside that
        // window on node 1.
        s.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        s.assign(jobs[0].task_id(1), NodeId(1), Time::from_millis(500));
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(r.fired(Rule::Precedence));
        assert!(!r.passes());
        // Dependency-oblivious planning downgrades R2 to a warning.
        let oblivious = VerifyOptions { dependency_aware: false, ..VerifyOptions::default() };
        let r2 = check_schedule(&s, &jobs, &cluster, &oblivious);
        assert!(r2.fired(Rule::Precedence));
        assert!(r2.passes());
    }

    #[test]
    fn child_at_exact_parent_finish_is_legal() {
        let (jobs, cluster, s) = valid_chain();
        // Child starts exactly at the parent's planned finish: no finding.
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(!r.fired(Rule::Precedence));
    }

    #[test]
    fn slot_overlap_fires_r3() {
        let jobs = vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::from_secs(100),
            vec![TaskSpec::sized(1000.0); 2],
            Dag::new(2),
        )];
        let cluster = uniform(1, 1000.0, 1);
        let mut s = Schedule::new();
        // Two 1s tasks on the single slot at the same instant.
        s.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        s.assign(jobs[0].task_id(1), NodeId(0), Time::from_millis(999));
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(r.fired(Rule::Capacity));
        assert_eq!(r.count(Rule::Capacity), 1);
    }

    #[test]
    fn back_to_back_on_one_slot_is_legal() {
        let (jobs, cluster, s) = valid_chain();
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(!r.fired(Rule::Capacity));
    }

    #[test]
    fn deadline_overrun_fires_r4_as_warning() {
        // 2s of chained work against a 1.5s deadline.
        let jobs = vec![chain_job(Time::from_millis(1500))];
        let cluster = uniform(1, 1000.0, 1);
        let mut s = Schedule::new();
        s.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        s.assign(jobs[0].task_id(1), NodeId(0), Time::from_secs(1));
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(r.fired(Rule::Deadline));
        assert!(r.passes(), "deadline misses are warnings: {r}");
        let no_deadlines = VerifyOptions { check_deadlines: false, ..VerifyOptions::default() };
        assert!(!check_schedule(&s, &jobs, &cluster, &no_deadlines).fired(Rule::Deadline));
    }

    /// R1/R2/R4 as they were before assignments were grouped by job: one
    /// scan of the whole schedule per job (and of the whole job list per
    /// assignment). Quadratic, obviously right — the reference.
    mod oracle {
        use super::super::*;
        use std::collections::HashMap;

        pub(super) fn check_schedule(
            s: &Schedule,
            jobs: &[Job],
            cluster: &ClusterSpec,
            opts: &VerifyOptions,
        ) -> Report {
            // R1's per-assignment findings, with the job looked up by scan.
            let mut report = Report::default();
            let probe = check_coverage(s, jobs, cluster);
            let mut per_assignment = probe.iter().filter(|d| d.node.is_some());
            for a in &s.assignments {
                let known = jobs.iter().find(|j| j.id == a.task.job);
                let mut expected = usize::from(a.node.idx() >= cluster.len());
                expected += usize::from(known.is_none_or(|j| a.task.idx() >= j.num_tasks()));
                for _ in 0..expected {
                    let d = per_assignment.next().expect("an R1 finding per broken assignment");
                    assert_eq!((d.task, d.at), (Some(a.task), Some(a.start)));
                    report.push(d.clone());
                }
            }
            assert!(per_assignment.next().is_none());
            probe.iter().filter(|d| d.node.is_none()).for_each(|d| report.push(d.clone()));

            let severity = if opts.dependency_aware { Severity::Error } else { Severity::Warning };
            for job in jobs {
                let mut placed: HashMap<u32, &Assignment> = HashMap::new();
                for a in &s.assignments {
                    if a.task.job == job.id
                        && a.task.idx() < job.num_tasks()
                        && a.node.idx() < cluster.len()
                    {
                        placed.insert(a.task.index, a);
                    }
                }
                for (u, v) in job.dag.edges() {
                    let (Some(pu), Some(pv)) = (placed.get(&u), placed.get(&v)) else {
                        continue;
                    };
                    let (parent_finish, sv) = (pu.planned_finish(job, cluster), pv.start);
                    if sv < parent_finish {
                        report.push(Diagnostic {
                            rule: Rule::Precedence,
                            severity,
                            task: Some(job.task_id(v)),
                            node: None,
                            at: Some(sv),
                            message: format!(
                                "starts at {:.3}s before parent {} finishes at {:.3}s",
                                sv.as_secs_f64(),
                                job.task_id(u),
                                parent_finish.as_secs_f64()
                            ),
                        });
                    }
                }
            }
            check_capacity(s, &JobsById::new(jobs), cluster, &mut report);
            if !opts.check_deadlines {
                return report;
            }
            let mean = cluster.mean_rate();
            for job in jobs {
                let exec = job.exec_estimates(mean);
                let deadlines = level_deadlines(&job.dag, job.levels(), job.deadline, &exec);
                for a in &s.assignments {
                    if a.task.job != job.id
                        || a.task.idx() >= job.num_tasks()
                        || a.node.idx() >= cluster.len()
                    {
                        continue;
                    }
                    let finish = a.planned_finish(job, cluster);
                    let deadline = deadlines[a.task.idx()];
                    if finish > deadline {
                        report.push(Diagnostic {
                            rule: Rule::Deadline,
                            severity: Severity::Warning,
                            task: Some(a.task),
                            node: Some(a.node),
                            at: Some(a.start),
                            message: format!(
                                "planned finish {:.3}s misses the level deadline {:.3}s",
                                finish.as_secs_f64(),
                                deadline.as_secs_f64()
                            ),
                        });
                    }
                }
            }
            report
        }
    }

    #[test]
    fn jobs_sharing_an_id_are_found_first_and_last() {
        let mut jobs: Vec<Job> = (0..4).map(|_| chain_job(Time::from_secs(1))).collect();
        for (job, (id, deadline)) in jobs.iter_mut().zip([(7, 10), (3, 20), (7, 30), (7, 40)]) {
            job.id = JobId(id);
            job.deadline = Time::from_secs(deadline);
        }
        let by_id = JobsById::new(&jobs);
        let deadline = |job: Option<&Job>| job.map(|j| j.deadline.as_micros() / 1_000_000);
        assert_eq!(deadline(by_id.first(JobId(7))), Some(10));
        assert_eq!(deadline(by_id.last(JobId(7))), Some(40));
        assert_eq!(deadline(by_id.first(JobId(3))), deadline(by_id.last(JobId(3))));
        for absent in [0, 5, 9] {
            assert!(by_id.first(JobId(absent)).is_none() && by_id.last(JobId(absent)).is_none());
        }
    }

    /// Three chain jobs with ids 0, 5, 2 (not sorted, not dense), their
    /// tasks interleaved in the schedule, two per node.
    fn interleaved() -> (Vec<Job>, ClusterSpec, Schedule) {
        let mut jobs = Vec::new();
        for (id, deadline) in [(0, 100), (5, 1), (2, 100)] {
            let mut job = chain_job(Time::from_secs(deadline));
            job.id = JobId(id);
            jobs.push(job);
        }
        let cluster = uniform(3, 1000.0, 2);
        let mut s = Schedule::new();
        for v in 0..2u32 {
            for (k, job) in jobs.iter().enumerate() {
                s.assign(job.task_id(v), NodeId(k as u32), Time::from_secs(u64::from(v)));
            }
        }
        (jobs, cluster, s)
    }

    #[test]
    fn grouped_rules_report_exactly_what_the_per_job_scans_did() {
        type Mutation = fn(&mut Vec<Job>, &mut Schedule);
        // The corruptions of tests/verify_mutations.rs, and the cases where
        // grouping could change an answer: duplicates (last wins), unknown
        // and repeated job ids, out-of-range tasks and nodes.
        let mutations: [Mutation; 12] = [
            |_, _| {},
            |_, s| s.assignments.truncate(s.assignments.len() - 1),
            |_, s| s.assignments.push(s.assignments[0]),
            |_, s| s.assignments[0].node = NodeId(99),
            |_, s| {
                let last = s.assignments.len() - 1;
                s.assignments[last].start = Time::ZERO;
                s.assignments[last].node = NodeId(0);
            },
            |_, s| s.assignments.iter_mut().for_each(|a| a.node = NodeId(0)),
            |_, s| s.assignments[4].start = Time::from_secs(2000),
            |_, s| s.assign(TaskId::new(7, 0), NodeId(0), Time::from_secs(9)),
            |_, s| s.assign(TaskId::new(5, 9), NodeId(1), Time::from_secs(9)),
            // A late duplicate that breaks precedence: it must win …
            |_, s| s.assign(TaskId::new(5, 1), NodeId(2), Time::ZERO),
            // … and an early legal one that must lose to the original.
            |_, s| {
                s.assignments.insert(
                    0,
                    Assignment {
                        task: TaskId::new(2, 1),
                        node: NodeId(0),
                        start: Time::from_secs(50),
                    },
                )
            },
            // Two jobs under one id: R1 judges by the first, R2/R4 by each.
            |jobs, _| {
                let tasks = vec![TaskSpec::sized(500.0)];
                let deadline = Time::from_secs(100);
                let twin =
                    Job::new(jobs[1].id, JobClass::Small, Time::ZERO, deadline, tasks, Dag::new(1));
                jobs.insert(0, twin);
            },
        ];
        let mut fired = Vec::new();
        for (i, mutate) in mutations.iter().enumerate() {
            let (mut jobs, cluster, mut s) = interleaved();
            mutate(&mut jobs, &mut s);
            for dependency_aware in [true, false] {
                for check_deadlines in [true, false] {
                    let opts = VerifyOptions { dependency_aware, check_deadlines };
                    let report = check_schedule(&s, &jobs, &cluster, &opts);
                    assert_eq!(
                        report,
                        oracle::check_schedule(&s, &jobs, &cluster, &opts),
                        "mutation {i}, {opts:?}"
                    );
                    fired.extend(report.iter().map(|d| d.rule));
                }
            }
        }
        for rule in [Rule::Coverage, Rule::Precedence, Rule::Capacity, Rule::Deadline] {
            assert!(fired.contains(&rule), "no case exercised {}", rule.id());
        }
    }

    #[test]
    fn heterogeneous_rates_use_the_assigned_node() {
        // Node 0 at 2000 MIPS finishes the 1000 MI parent in 0.5s; a child
        // on node 1 may start at 0.5s.
        let mut cluster = uniform(2, 2000.0, 1);
        cluster.nodes[1] =
            dsp_cluster::Node::new(NodeId(1), 1000.0, 1000.0, cluster.nodes[1].capacity, 1);
        let jobs = vec![chain_job(Time::from_secs(100))];
        let mut s = Schedule::new();
        s.assign(jobs[0].task_id(0), NodeId(0), Time::ZERO);
        s.assign(jobs[0].task_id(1), NodeId(1), Time::from_millis(500));
        let r = check_schedule(&s, &jobs, &cluster, &VerifyOptions::default());
        assert!(!r.fired(Rule::Precedence), "{r}");
    }
}
