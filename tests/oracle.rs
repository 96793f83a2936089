//! The plan audit (`check_schedule`, R1–R4) held to a reference that
//! states each rule the slow, obvious way: a scan of the whole schedule per
//! task, job and node, and every message formatted from its own literal.
//! The reference and the audit must agree on every finding — rule,
//! severity, task, node, instant and rendered text, in the same order — on
//! a hand-built fixture under twelve corruptions and on the plans every
//! scheduler of the method table makes on `ec2` and `blend`. The rendered
//! reports of two product runs are pinned by digest besides.

use dsp_core::cluster::{uniform, ClusterSpec, NodeId};
use dsp_core::dag::{level_deadlines, Dag, Job, JobClass, JobId, TaskId, TaskSpec};
use dsp_core::sim::{Assignment, Schedule};
use dsp_core::trace::{generate_workload, TraceParams};
use dsp_core::units::Time;
use dsp_core::verify::{check_schedule, Report, Rule, Severity, VerifyOptions};
use dsp_core::{ClusterProfile, Params, Plan, SchedMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One finding as the reference states it: where, and the message text.
#[derive(Debug, Clone, PartialEq)]
struct Finding {
    rule: Rule,
    severity: Severity,
    task: Option<TaskId>,
    node: Option<NodeId>,
    at: Option<Time>,
    message: String,
}

impl Finding {
    /// The line a report prints for this finding.
    fn line(&self) -> String {
        let mut line = format!("{} {}", self.rule.id(), self.severity);
        if let Some(t) = self.task {
            line += &format!(" task {t}");
        }
        if let Some(n) = self.node {
            line += &format!(" node {}", n.idx());
        }
        if let Some(at) = self.at {
            line += &format!(" @{:.3}s", at.as_secs_f64());
        }
        line + ": " + &self.message + "\n"
    }
}

/// R1–R4 by scans, with both options on: R2 findings are errors and R4
/// runs. Jobs sharing an id: R1 looks a task's job up as a scan of the
/// batch finds it (the first), R3 as a map collected from the batch holds
/// it (the last), and R2/R4 judge every job against every assignment
/// naming its id. A task assigned twice is placed where its last
/// assignment puts it.
fn reference(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec) -> Vec<Finding> {
    let all = &s.assignments;
    let mut out = Vec::new();
    let finish = |a: &Assignment, job: &Job| {
        a.start + job.task(a.task.index).est_exec_time(cluster.nodes[a.node.idx()].rate())
    };
    let r1 = |task, node, at, message| Finding {
        rule: Rule::Coverage,
        severity: Severity::Error,
        task: Some(task),
        node,
        at,
        message,
    };

    // R1, per assignment.
    for a in all {
        if a.node.idx() >= cluster.len() {
            let message = format!(
                "assigned to node {} but the cluster has only {} nodes",
                a.node.idx(),
                cluster.len()
            );
            out.push(r1(a.task, Some(a.node), Some(a.start), message));
        }
        match jobs.iter().find(|j| j.id == a.task.job) {
            None => {
                let message = format!("job {} is not in the batch", a.task.job);
                out.push(r1(a.task, Some(a.node), Some(a.start), message));
            }
            Some(job) if a.task.idx() >= job.num_tasks() => {
                let message = format!(
                    "task index {} out of range (job has {} tasks)",
                    a.task.idx(),
                    job.num_tasks()
                );
                out.push(r1(a.task, Some(a.node), Some(a.start), message));
            }
            Some(_) => {}
        }
    }
    // R1, repeated tasks at their first assignment, then unassigned tasks.
    for (p, a) in all.iter().enumerate() {
        if all[..p].iter().any(|b| b.task == a.task) {
            continue;
        }
        let times = all[p..].iter().filter(|b| b.task == a.task).count();
        if times > 1 {
            out.push(r1(
                a.task,
                None,
                None,
                format!("assigned {times} times (must be exactly once)"),
            ));
        }
    }
    for job in jobs {
        for v in 0..job.num_tasks() as u32 {
            if !all.iter().any(|a| a.task == job.task_id(v)) {
                out.push(r1(job.task_id(v), None, None, "never assigned".into()));
            }
        }
    }

    // R2, along each job's edges.
    for job in jobs {
        let placed: Vec<Option<&Assignment>> = (0..job.num_tasks() as u32)
            .map(|v| {
                all.iter().rev().find(|a| a.task == job.task_id(v) && a.node.idx() < cluster.len())
            })
            .collect();
        for (u, v) in job.dag.edges() {
            let (Some(parent), Some(child)) = (placed[u as usize], placed[v as usize]) else {
                continue;
            };
            let parent_finish = finish(parent, job);
            if child.start < parent_finish {
                out.push(Finding {
                    rule: Rule::Precedence,
                    severity: Severity::Error,
                    task: Some(job.task_id(v)),
                    node: None,
                    at: Some(child.start),
                    message: format!(
                        "starts at {:.3}s before parent {} finishes at {:.3}s",
                        child.start.as_secs_f64(),
                        job.task_id(u),
                        parent_finish.as_secs_f64()
                    ),
                });
            }
        }
    }

    // R3: the load a sweep of the node's planned intervals reads as an
    // interval arrives — every arrival up to it (by start, then schedule
    // order) less every departure at or before its start — reported at the
    // first arrival in that order that reads more than the node's slots.
    for (n, node) in cluster.nodes.iter().enumerate() {
        let intervals: Vec<(usize, Time, Time, TaskId)> = all
            .iter()
            .enumerate()
            .filter(|(_, a)| a.node.idx() == n)
            .filter_map(|(p, a)| {
                let job = jobs.iter().rev().find(|j| j.id == a.task.job)?;
                (a.task.idx() < job.num_tasks()).then(|| (p, a.start, finish(a, job), a.task))
            })
            .collect();
        let slots = node.slots as i64;
        let first = intervals
            .iter()
            .filter_map(|&(p, start, _, task)| {
                let arrived = intervals.iter().filter(|i| (i.1, i.0) <= (start, p)).count();
                let departed = intervals.iter().filter(|i| i.2 <= start).count();
                let load = arrived as i64 - departed as i64;
                (load > slots).then_some((start, p, task, load))
            })
            .min_by_key(|&(start, p, _, _)| (start, p));
        if let Some((start, _, task, load)) = first {
            out.push(Finding {
                rule: Rule::Capacity,
                severity: Severity::Error,
                task: Some(task),
                node: Some(node.id),
                at: Some(start),
                message: format!("{load} tasks planned concurrently on a {slots}-slot node"),
            });
        }
    }

    // R4, every valid assignment of each job in schedule order.
    let mean = cluster.mean_rate();
    for job in jobs {
        let deadlines =
            level_deadlines(&job.dag, job.levels(), job.deadline, &job.exec_estimates(mean));
        for a in all {
            if a.task.job != job.id
                || a.task.idx() >= job.num_tasks()
                || a.node.idx() >= cluster.len()
            {
                continue;
            }
            let (finish, deadline) = (finish(a, job), deadlines[a.task.idx()]);
            if finish > deadline {
                out.push(Finding {
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
    out
}

/// `check_schedule` against the reference under all four option sets, on
/// every field and on the rendered report; returns the rules that fired.
/// The options change only R2's severity and whether R4 runs, so the
/// reference runs once, under both options on, and the other three sets
/// are read off it.
fn agrees(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec, case: &str) -> Vec<Rule> {
    let all_on = reference(s, jobs, cluster);
    let mut fired = Vec::new();
    for dependency_aware in [true, false] {
        for check_deadlines in [true, false] {
            let opts = VerifyOptions { dependency_aware, check_deadlines };
            let report = check_schedule(s, jobs, cluster, &opts);
            let want: Vec<Finding> = all_on
                .iter()
                .filter(|w| check_deadlines || w.rule != Rule::Deadline)
                .map(|w| match w.rule {
                    Rule::Precedence if !dependency_aware => {
                        Finding { severity: Severity::Warning, ..w.clone() }
                    }
                    _ => w.clone(),
                })
                .collect();
            assert_eq!(report.len(), want.len(), "{case}, {opts:?}: finding count");
            for (i, (d, w)) in report.iter().zip(&want).enumerate() {
                let got = (d.rule, d.severity, d.task, d.node, d.at);
                assert_eq!(
                    got,
                    (w.rule, w.severity, w.task, w.node, w.at),
                    "{case}, {opts:?}, #{i}"
                );
                assert_eq!(format!("{d}\n"), w.line(), "{case}, {opts:?}, #{i}");
            }
            let text: String = want.iter().map(Finding::line).collect();
            let text = if want.is_empty() { "clean: no rule violations\n".into() } else { text };
            assert_eq!(report.to_string(), text, "{case}, {opts:?}: rendered report");
            fired.extend(want.iter().map(|w| w.rule));
        }
    }
    fired
}

/// One 2-task chain job (1000 MI each) on a given deadline.
fn chain_job(deadline: Time) -> Job {
    let mut dag = Dag::new(2);
    dag.add_edge(0, 1).expect("edge");
    let tasks = vec![TaskSpec::sized(1000.0); 2];
    Job::new(JobId(0), JobClass::Small, Time::ZERO, deadline, tasks, dag)
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

type Mutation = fn(&mut Vec<Job>, &mut Schedule);

/// Corruptions that make sense on any plan: the ones of
/// tests/verify_mutations.rs, plus a task of an unknown job.
const ANY_PLAN: [Mutation; 7] = [
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
    |_, s| s.assign(TaskId::new(7_000, 0), NodeId(0), Time::from_secs(9)),
];

#[test]
fn grouped_rules_report_exactly_what_the_per_job_scans_did() {
    // Beyond ANY_PLAN, the cases where grouping could change an answer:
    // duplicates (last wins), repeated job ids, out-of-range tasks.
    let fixture_only: [Mutation; 6] = [
        |_, s| s.assignments[4].start = Time::from_secs(2000),
        |_, s| s.assign(TaskId::new(5, 9), NodeId(1), Time::from_secs(9)),
        // A late duplicate that breaks precedence: it must win …
        |_, s| s.assign(TaskId::new(5, 1), NodeId(2), Time::ZERO),
        // … and an early legal one that must lose to the original.
        |_, s| {
            let early =
                Assignment { task: TaskId::new(2, 1), node: NodeId(0), start: Time::from_secs(50) };
            s.assignments.insert(0, early)
        },
        // Two jobs under one id: R1 judges by the first, R3 by the last,
        // R2/R4 by each.
        |jobs, _| {
            let tasks = vec![TaskSpec::sized(500.0)];
            let deadline = Time::from_secs(100);
            let twin =
                Job::new(jobs[1].id, JobClass::Small, Time::ZERO, deadline, tasks, Dag::new(1));
            jobs.insert(0, twin);
        },
        // The same twin last, where it is the one R3 sizes tasks by.
        |jobs, s| {
            let tasks = vec![TaskSpec::sized(4000.0); 3];
            let deadline = Time::from_secs(100);
            let twin =
                Job::new(jobs[1].id, JobClass::Small, Time::ZERO, deadline, tasks, Dag::new(3));
            jobs.push(twin);
            s.assign(TaskId::new(5, 2), NodeId(1), Time::from_millis(500));
        },
    ];
    let mut fired = Vec::new();
    for (i, mutate) in ANY_PLAN.iter().chain(&fixture_only).enumerate() {
        let (mut jobs, cluster, mut s) = interleaved();
        mutate(&mut jobs, &mut s);
        fired.extend(agrees(&s, &jobs, &cluster, &format!("fixture mutation {i}")));
    }
    for rule in [Rule::Coverage, Rule::Precedence, Rule::Capacity, Rule::Deadline] {
        assert!(fired.contains(&rule), "no case exercised {}", rule.id());
    }
}

/// Every scheduler's plan of a generated workload, on both figure
/// profiles that mix node rates or not, under three seeds, clean and
/// corrupted.
#[test]
fn every_scheduler_plan_is_audited_as_the_reference_does() {
    let params = Params::default();
    let mut fired = Vec::new();
    for profile in [ClusterProfile::Ec2, ClusterProfile::Blend] {
        let cluster = profile.build();
        for seed in [1, 2018, 6262] {
            // Deadlines at the critical path itself: the plan's queueing
            // makes some planned finishes miss their level deadlines.
            let trace = TraceParams {
                task_scale: profile.task_scale(),
                deadline_slack: 1.0,
                ..TraceParams::default()
            };
            let jobs = generate_workload(&mut StdRng::seed_from_u64(seed), 10, &trace);
            for sched in SchedMethod::ALL {
                let plan = Plan::of(&jobs, &cluster, &params, sched, seed);
                let case = format!("{} on {} seed {seed}", sched.name(), cluster.name);
                assert!(!plan.schedule.is_empty(), "{case}: an empty plan");
                for (i, mutate) in ANY_PLAN.iter().enumerate() {
                    let (mut jobs, mut s) = (jobs.clone(), plan.schedule.clone());
                    mutate(&mut jobs, &mut s);
                    fired.extend(agrees(&s, &jobs, &cluster, &format!("{case}, mutation {i}")));
                }
            }
        }
    }
    for rule in [Rule::Coverage, Rule::Precedence, Rule::Capacity, Rule::Deadline] {
        assert!(fired.contains(&rule), "no generated case exercised {}", rule.id());
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Findings per rule R1–R6, and the FNV-1a 64 of the rendered report.
fn summary(report: &Report) -> ([usize; 6], u64) {
    let rules = [
        Rule::Coverage,
        Rule::Precedence,
        Rule::Capacity,
        Rule::Deadline,
        Rule::Overhead,
        Rule::WorkConservation,
    ];
    (rules.map(|r| report.count(r)), fnv1a(report.to_string().as_bytes()))
}

/// The plan of the benchmark's `sim_paper` workload at seed 2018: 200
/// jobs on ec2 at the figure scale, five arrivals a minute, DSP-list.
#[test]
fn sim_paper_plan_report_is_pinned() {
    let trace = TraceParams {
        task_scale: 0.06,
        arrival_rate_per_min: (5.0, 5.0),
        ..TraceParams::default()
    };
    let jobs = generate_workload(&mut StdRng::seed_from_u64(2018), 200, &trace);
    let cluster = ClusterProfile::Ec2.build();
    let plan = Plan::of(&jobs, &cluster, &Params::default(), SchedMethod::Dsp, 2018);
    assert_eq!(summary(&plan.report), ([0, 0, 0, 6351, 0, 0], 0xe854_6f4b_10e1_0d5f));
}

/// One cell of a severe storm on tight deadlines: the cell's whole R1–R6
/// report, the plan's findings heading the run's.
#[test]
fn severe_storm_cell_report_is_pinned() {
    use dsp_core::{run_matrix, DeadlineTier, MatrixConfig, PreemptMethod, Storm};
    let cfg = MatrixConfig {
        schedulers: vec![SchedMethod::Dsp],
        preempts: vec![PreemptMethod::Dsp],
        deadlines: vec![DeadlineTier::Tight],
        exec_models: vec![dsp_core::trace::ExecModel::Wcet],
        arrivals: vec![dsp_core::trace::ArrivalModel::Bursty],
        storms: vec![Storm::Severe],
        num_jobs: 24,
        ..MatrixConfig::quick(2018)
    };
    let mut reports = Vec::new();
    run_matrix(&cfg, |cell| reports.push(summary(&cell.report)));
    assert_eq!(reports, [([0, 0, 0, 43, 0, 0], 0x1be8_f3e4_67f9_bb83)]);
}
