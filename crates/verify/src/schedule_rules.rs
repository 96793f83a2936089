//! Static rules over a planned [`Schedule`]: R1 coverage, R2 precedence,
//! R3 slot capacity, R4 deadline feasibility.
//!
//! All timing rules reason in the *estimated* timeline the offline
//! schedulers plan in: a task placed on node `k` at `t^s` is estimated to
//! finish at `t^s + l̂/g(k)` (Eq. 2 over the scheduler's size estimate).
//! That is exactly the arithmetic `dsp-sched`'s packing simulations use, so
//! a dependency-aware scheduler's output satisfies R2/R3 to the microsecond.
//!
//! The schedule is indexed once (`Index`): each assignment's job is
//! looked up once, each task counts in one flat slot, and the assignments
//! are bucketed by job in schedule order. One walk per job then prices each
//! assignment's planned finish once and hands it to R2, R3 and R4.

use crate::diag::{Diagnostic, Finding, Report, Rule, Severity};
use crate::VerifyOptions;
use dsp_cluster::ClusterSpec;
use dsp_dag::{level_deadlines, Job, JobId, TaskId};
use dsp_sim::{Assignment, Schedule};
use dsp_units::Time;

/// R1 alone: every task of every job appears exactly once, on a real node.
/// This is the single source of truth behind
/// `dsp_sched::api::schedule_covers_jobs`.
pub fn check_coverage(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec) -> Report {
    let mut report = Report::default();
    Index::new(s, jobs, cluster, &mut report).coverage(jobs, &mut report);
    report
}

/// No group: the assignment names a job id no job of the batch carries.
const NO_GROUP: u32 = u32::MAX;

/// The jobs of the batch that carry one id, and the task slots the id's
/// tasks count in.
struct Group {
    id: JobId,
    /// The first job carrying the id, as a scan of the batch finds it: R1
    /// sizes the id's tasks by it.
    first: usize,
    /// The last, as a map collected from the batch holds it: R3 sizes the
    /// id's tasks by it.
    last: usize,
    /// The id's task slots are `base..base + width`, `width` the largest
    /// task count among its jobs.
    base: usize,
    width: usize,
}

/// The schedule indexed for R1–R4, with R1's per-assignment findings
/// reported as it is built.
struct Index {
    /// The batch's job ids, ascending.
    groups: Vec<Group>,
    /// Each job's group.
    job_group: Vec<u32>,
    /// Each assignment's group, or [`NO_GROUP`].
    group: Vec<u32>,
    /// Per task slot: how many assignments name the task, and the position
    /// of the first.
    times: Vec<u32>,
    first: Vec<u32>,
    /// Assignments naming a task that has no slot (its job id is unknown,
    /// or its index is past every job under the id), beside their positions.
    stray: Vec<(TaskId, u32)>,
}

impl Index {
    fn new(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec, report: &mut Report) -> Index {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_unstable_by_key(|&j| (jobs[j].id, j));
        let mut groups: Vec<Group> = Vec::new();
        let mut job_group = vec![0; jobs.len()];
        let mut base = 0;
        for run in order.chunk_by(|&x, &y| jobs[x].id == jobs[y].id) {
            let width = run.iter().map(|&j| jobs[j].num_tasks()).max().unwrap_or(0);
            for &j in run {
                job_group[j] = groups.len() as u32;
            }
            let (first, last) = (run[0], run[run.len() - 1]);
            groups.push(Group { id: jobs[first].id, first, last, base, width });
            base += width;
        }

        let mut index = Index {
            group: Vec::with_capacity(s.len()),
            times: vec![0; base],
            first: vec![0; base],
            stray: Vec::new(),
            groups,
            job_group,
        };
        // A plan names one job many times in a row: look the id up again
        // only when it changes.
        let mut last_lookup = None;
        for (at, a) in s.assignments.iter().enumerate() {
            if a.node.idx() >= cluster.len() {
                let finding = Finding::NoSuchNode { node: a.node, nodes: cluster.len() };
                report.push(r1_at(a, finding));
            }
            let g = match last_lookup {
                Some((id, g)) if id == a.task.job => g,
                _ => {
                    let g = index.find(a.task.job);
                    last_lookup = Some((a.task.job, g));
                    g
                }
            };
            index.group.push(g);
            let slot = match index.groups.get(g as usize) {
                None => {
                    report.push(r1_at(a, Finding::NoSuchJob { job: a.task.job }));
                    None
                }
                Some(group) => {
                    let tasks = jobs[group.first].num_tasks();
                    if a.task.idx() >= tasks {
                        let finding = Finding::NoSuchTask { index: a.task.index, tasks };
                        report.push(r1_at(a, finding));
                    }
                    (a.task.idx() < group.width).then_some(group.base + a.task.idx())
                }
            };
            match slot {
                Some(slot) => {
                    if index.times[slot] == 0 {
                        index.first[slot] = at as u32;
                    }
                    index.times[slot] += 1;
                }
                None => index.stray.push((a.task, at as u32)),
            }
        }
        index
    }

    /// The group of job id `id`, or [`NO_GROUP`].
    fn find(&self, id: JobId) -> u32 {
        let g = self.groups.partition_point(|g| g.id < id);
        if self.groups.get(g).is_some_and(|g| g.id == id) {
            g as u32
        } else {
            NO_GROUP
        }
    }

    /// R1's per-task findings: tasks assigned more than once, in
    /// first-assignment order, then each job's unassigned tasks.
    fn coverage(&mut self, jobs: &[Job], report: &mut Report) {
        let mut repeated: Vec<(u32, TaskId, usize)> = Vec::new();
        for group in &self.groups {
            for v in 0..group.width {
                let times = self.times[group.base + v];
                if times > 1 {
                    let task = TaskId { job: group.id, index: v as u32 };
                    repeated.push((self.first[group.base + v], task, times as usize));
                }
            }
        }
        // A stray task's assignments are one run of the sorted list, its
        // first assignment first.
        self.stray.sort_unstable();
        for run in self.stray.chunk_by(|x, y| x.0 == y.0).filter(|run| run.len() > 1) {
            repeated.push((run[0].1, run[0].0, run.len()));
        }
        repeated.sort_unstable_by_key(|&(at, _, _)| at);
        for (_, task, times) in repeated {
            report.push(r1_of(task, Finding::Repeated { times }));
        }
        for (job, &g) in jobs.iter().zip(&self.job_group) {
            let base = self.groups[g as usize].base;
            for v in 0..job.num_tasks() {
                if self.times[base + v] == 0 {
                    report.push(r1_of(job.task_id(v as u32), Finding::Unassigned));
                }
            }
        }
    }
}

/// An R1 error located at an assignment.
fn r1_at(a: &Assignment, finding: Finding) -> Diagnostic {
    Diagnostic {
        rule: Rule::Coverage,
        severity: Severity::Error,
        task: Some(a.task),
        node: Some(a.node),
        at: Some(a.start),
        finding,
    }
}

/// An R1 error about a task as a whole.
fn r1_of(task: TaskId, finding: Finding) -> Diagnostic {
    Diagnostic {
        rule: Rule::Coverage,
        severity: Severity::Error,
        task: Some(task),
        node: None,
        at: None,
        finding,
    }
}

/// Run R1–R4 over a planned schedule, in rule order.
///
/// * R2: along every DAG edge `(u, v)`, the child's planned start must not
///   precede the parent's planned finish. A task assigned twice is placed
///   where its last assignment puts it (R1 reports the duplicate).
/// * R3: sweep each node's planned intervals `[t^s, t^s + l̂/g(k))`; the
///   number of overlapping intervals must never exceed the node's slots.
///   Intervals are half-open, so a departure frees its slot to an arrival
///   at the same instant — the packing simulations' exact semantics. One
///   finding per node: the first oversubscribed arrival, arrivals at one
///   instant taken in schedule order.
/// * R4: Eq. 5 feasibility — every task's planned finish meets its
///   level-propagated deadline (computed, as everywhere in the workspace,
///   from estimates at the cluster's mean rate). Deadline misses are
///   warnings: the paper treats deadlines as soft targets the online phase
///   chases, not as admission constraints.
///
/// Jobs sharing an id: R1 sizes the id's tasks by its first job, R3 by
/// its last, and R2/R4 judge every job against every assignment naming
/// the id.
pub fn check_schedule(
    s: &Schedule,
    jobs: &[Job],
    cluster: &ClusterSpec,
    opts: &VerifyOptions,
) -> Report {
    let mut report = Report::default();
    let mut index = Index::new(s, jobs, cluster, &mut report);
    index.coverage(jobs, &mut report);
    let Index { groups, job_group, group, .. } = index;
    let nodes = cluster.len();

    // An assignment a job prices: a task the job has, on a real node. R3's
    // intervals are the assignments each id's last job prices.
    let priced = |a: &Assignment, job: &Job| a.node.idx() < nodes && a.task.idx() < job.num_tasks();
    // Bucket the assignments by group in schedule order, and count R3's
    // intervals per node. A counting sort: a stable comparison sort in its
    // place made `sim_paper`'s `finish_s` 6 % and `matrix_grid`'s 12 %
    // slower (2-vCPU Xeon).
    let mut bucket = vec![0u32; groups.len() + 1];
    let mut on_node = vec![0u32; nodes + 1];
    for (a, &g) in s.assignments.iter().zip(&group) {
        if g != NO_GROUP {
            bucket[g as usize + 1] += 1;
            if priced(a, &jobs[groups[g as usize].last]) {
                on_node[a.node.idx() + 1] += 1;
            }
        }
    }
    for counts in [&mut bucket, &mut on_node] {
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
    }
    let mut by_group = vec![0u32; bucket[groups.len()] as usize];
    let mut next = bucket.clone();
    for (at, &g) in group.iter().enumerate().filter(|&(_, &g)| g != NO_GROUP) {
        by_group[next[g as usize] as usize] = at as u32;
        next[g as usize] += 1;
    }

    // One walk per job over its group's assignments: the planned finish
    // of each one it prices, priced once, feeds R4 at once, R2 after the walk,
    // and R3 (from the id's last job) through the per-node intervals.
    let severity = if opts.dependency_aware { Severity::Error } else { Severity::Warning };
    let mean = cluster.mean_rate();
    let intervals = on_node[nodes] as usize;
    let mut starts: Vec<(Time, u32)> = vec![(Time::ZERO, 0); intervals];
    let mut finishes: Vec<Time> = vec![Time::ZERO; intervals];
    let mut fill = on_node.clone();
    let mut late = Vec::new();
    let mut placed: Vec<Option<(Time, Time)>> = Vec::new();
    for (j, (job, &g)) in jobs.iter().zip(&job_group).enumerate() {
        let n = job.num_tasks();
        let for_r3 = groups[g as usize].last == j;
        let deadlines = opts.check_deadlines.then(|| {
            level_deadlines(&job.dag, job.levels(), job.deadline, &job.exec_estimates(mean))
        });
        placed.clear();
        placed.resize(n, None);
        let (from, to) = (bucket[g as usize] as usize, bucket[g as usize + 1] as usize);
        for &at in &by_group[from..to] {
            let a = &s.assignments[at as usize];
            if !priced(a, job) {
                continue;
            }
            let finish = a.planned_finish(job, cluster);
            placed[a.task.idx()] = Some((a.start, finish));
            if let Some(deadline) = deadlines.as_ref().map(|d| d[a.task.idx()]) {
                if finish > deadline {
                    late.push(Diagnostic {
                        rule: Rule::Deadline,
                        severity: Severity::Warning,
                        task: Some(a.task),
                        node: Some(a.node),
                        at: Some(a.start),
                        finding: Finding::MissedDeadline { finish, deadline },
                    });
                }
            }
            if for_r3 {
                let k = &mut fill[a.node.idx()];
                starts[*k as usize] = (a.start, at);
                finishes[*k as usize] = finish;
                *k += 1;
            }
        }
        for (u, v) in job.dag.edges() {
            let (Some((_, parent_finish)), Some((start, _))) =
                (placed[u as usize], placed[v as usize])
            else {
                continue;
            };
            if start < parent_finish {
                report.push(Diagnostic {
                    rule: Rule::Precedence,
                    severity,
                    task: Some(job.task_id(v)),
                    node: None,
                    at: Some(start),
                    finding: Finding::BeforeParent { start, parent: job.task_id(u), parent_finish },
                });
            }
        }
    }
    debug_assert_eq!(fill[..nodes], on_node[1..], "R3 filed the intervals it counted");

    // R3: per node, arrivals by (start, schedule order) merged with the
    // departures, a departure first at a tie.
    for (n, node) in cluster.nodes.iter().enumerate() {
        let (from, to) = (on_node[n] as usize, on_node[n + 1] as usize);
        if to - from <= node.slots {
            continue;
        }
        let (arrivals, departures) = (&mut starts[from..to], &mut finishes[from..to]);
        arrivals.sort_unstable();
        departures.sort_unstable();
        // Signed: a zero-length interval departs before it arrives.
        let (mut left, mut load) = (departures.iter().peekable(), 0i64);
        for &(start, at) in arrivals.iter() {
            while left.next_if(|&&finish| finish <= start).is_some() {
                load -= 1;
            }
            load += 1;
            if load > node.slots as i64 {
                report.push(Diagnostic {
                    rule: Rule::Capacity,
                    severity: Severity::Error,
                    task: Some(s.assignments[at as usize].task),
                    node: Some(node.id),
                    at: Some(start),
                    finding: Finding::Oversubscribed { load: load as usize, slots: node.slots },
                });
                break;
            }
        }
    }
    report.diagnostics.append(&mut late);
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
        let findings: Vec<(TaskId, String)> =
            report.iter().map(|d| (d.task.expect("a task"), d.finding.to_string())).collect();
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
        let want: Vec<(TaskId, String)> = want.iter().map(|&(t, m)| (t, m.to_string())).collect();
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

    #[test]
    fn jobs_sharing_an_id_form_one_group_sized_by_the_widest() {
        let mut jobs: Vec<Job> = (0..4).map(|_| chain_job(Time::from_secs(1))).collect();
        for (job, id) in jobs.iter_mut().zip([7, 3, 7, 7]) {
            job.id = JobId(id);
        }
        jobs[2] = Job::new(
            JobId(7),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(10.0); 5],
            Dag::new(5),
        );
        let cluster = uniform(1, 1000.0, 1);
        let index = Index::new(&Schedule::new(), &jobs, &cluster, &mut Report::default());
        let groups: Vec<_> =
            index.groups.iter().map(|g| (g.id.0, g.first, g.last, g.base, g.width)).collect();
        assert_eq!(groups, [(3, 1, 1, 0, 2), (7, 0, 3, 2, 5)]);
        assert_eq!(index.job_group, [1, 0, 1, 1]);
        for absent in [0, 5, 9] {
            assert_eq!(index.find(JobId(absent)), NO_GROUP);
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
