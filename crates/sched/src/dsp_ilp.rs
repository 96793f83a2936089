//! The exact Section III MILP, solved with the `dsp-lp` branch-and-bound.
//!
//! The paper's formulation (3)–(11) contains bilinear terms (`t^s_ij ·
//! x_ij,k`); we apply the standard linearization: one binary `x_{t,k}` per
//! task×slot, one continuous start `s_t`, one ordering binary `y_{u,v}` per
//! task pair, and big-M disjunctive constraints that only bind when both
//! tasks land on the same slot (constraints (5)/(8)). Multi-slot nodes are
//! expanded into *virtual single-slot nodes* sharing the physical node's
//! rate, which makes the disjunctive model exact under the paper's slot
//! semantics. The offline plan estimates `N^p = 0` preemptions (the online
//! phase, not the plan, pays for preemptions that actually happen).
//!
//! No model is built when the list heuristic's plan is provably optimal:
//! its makespan equals [`makespan_lower_bound`] (critical path and slot
//! load, in integer µs), it breaks no row the model would build, and it
//! passes R1–R4. That plan is `Exact` with zero solver effort — on the
//! `ilp_exact` benchmark's instances, about 78 % of them.
//!
//! Only the rows that can bind are built. A pair gets its `y` and its 2·k
//! disjunctive rows only when neither task is an ancestor of the other —
//! the `prec` chain already separates related pairs on every slot; only
//! tasks without children get a makespan row (`mk`); a deadline gets its
//! row (`dl`) only when it is below the horizon `Σ_t max_k e_{t,k} + max_k
//! rel_k` that every optimal schedule fits in. No `x ≤ 1` row either: the
//! `assign` rows already bound every `x`.
//!
//! Interchangeable slots are searched once, not once per labelling. Two
//! virtual slots are interchangeable when every task has the same `e_{t,k}`
//! on both and both drain their backlog at the same instant. Within each
//! class of such slots, `x_{t,k}` gets upper bound 0 when slot k's position
//! in its class (slot order) exceeds task t's rank in `topo`. No optimum is
//! lost: relabel each class's slots in the order of the lowest-ranked task
//! each holds, and the p-th slot's lowest rank is at least p, at the same
//! makespan. A batch with no interchangeable pair builds the model as if
//! the rule did not exist.
//!
//! Only the combinatorial answer is read back: the slot of each task and
//! the order of the tasks. Starts are re-derived in integer microseconds
//! by one forward pass over precedence, slot order and `node_avail`, in
//! the `est_exec_time` arithmetic `dsp_verify::check_schedule` uses, and
//! the result is audited — R1–R3, and a makespan no longer than the
//! solver's `L` plus its numerical residue — before it is reported
//! `Exact` or `Incumbent`. A failed audit is `Fallback` and
//! [`IlpStats::audit_failures`], never a silent schedule. `dsp-lp` prunes
//! a node as infeasible only on a cold solve's word: a warm dual re-entry
//! that reports `Infeasible` is re-checked by a cold solve of the node.
//!
//! Exact search is reserved for small instances. The paper, noting the
//! problem is NP-complete, relaxes and rounds beyond them; this scheduler
//! has no rounding tier and falls back to [`DspListScheduler`], the
//! practical arm, whenever the instance exceeds [`MAX_TASKS`] tasks or
//! [`MAX_SLOTS`] slots, the solver's node budget runs out, or the answer
//! fails its audit.

use crate::api::Scheduler;
use crate::dsp_list::DspListScheduler;
use dsp_cluster::{ClusterSpec, NodeId};
use dsp_dag::{deadline::level_deadlines, Job};
use dsp_lp::{
    solve_milp, Cmp, LpError, MilpOptions, Problem, Sense, Status, VarId, WorkerCounters,
};
use dsp_sim::Schedule;
use dsp_units::{Dur, Time};
use dsp_verify::{bounds::makespan_lower_bound, check_schedule, VerifyOptions};

/// Most tasks a batch may hold for exact search.
pub const MAX_TASKS: usize = 10;
/// Most virtual (single-slot) nodes a cluster may hold for exact search.
pub const MAX_SLOTS: usize = 4;

/// The exact search's budget. Its size gate is [`MAX_TASKS`] and
/// [`MAX_SLOTS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpLimits {
    /// Branch-and-bound node budget.
    pub max_bb_nodes: usize,
    /// Warm-start B&B child nodes from the parent basis (dual simplex);
    /// identical answers either way — off only for baseline measurements.
    pub warm_start: bool,
    /// Ignored: every solve runs on the calling thread. Present until the
    /// benchmark's `threads: 1` pins go.
    pub threads: usize,
}

impl Default for IlpLimits {
    fn default() -> Self {
        IlpLimits { max_bb_nodes: 20_000, warm_start: true, threads: 0 }
    }
}

/// Branch-and-bound effort counters from the most recent exact solve,
/// surfaced for the perf harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IlpStats {
    /// B&B nodes explored.
    pub nodes: usize,
    /// Simplex pivots summed over all node LP solves.
    pub pivots: usize,
    /// Nodes answered by warm dual-simplex re-entry.
    pub warm_hits: usize,
    /// Equals `nodes`; kept while `crates/benchmark` reads `lp.bb_rounds`.
    pub rounds: usize,
    /// `MilpSolution::per_worker` of that solve: one entry, or empty when
    /// the MILP was never touched. Present until the benchmark's
    /// `lp.workers` reader goes.
    pub per_worker: Vec<WorkerCounters>,
    /// 1 when the solve's answer failed its audit and the list fallback
    /// answered instead (the other counters are still that solve's).
    pub audit_failures: usize,
}

/// The exact-ILP scheduler with list-scheduling fallback.
#[derive(Debug, Clone, Copy, Default)]
pub struct DspIlpScheduler {
    /// Size limits gating exact search.
    pub limits: IlpLimits,
}

/// Outcome marker for tests/diagnostics: which arm produced the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpOutcome {
    /// Proven optimal: the list plan meets the makespan lower bound (zero
    /// solver effort), or branch-and-bound closed its gap. Either way the
    /// plan passed its audit.
    Exact,
    /// Exact MILP returned a feasible incumbent (budget exhausted).
    Incumbent,
    /// Fell back to the list heuristic.
    Fallback,
}

impl DspIlpScheduler {
    /// Plan `jobs` onto `cluster` at `at`, after each node's backlog
    /// `node_avail` (constraint (5): no task starts on a slot before the
    /// slot's earlier queue drains), and report which arm produced the plan
    /// and the solver's effort counters (zeros when no MILP was solved: the
    /// list plan met the lower bound, or the batch exceeded [`MAX_TASKS`] or
    /// [`MAX_SLOTS`]).
    pub fn schedule_with_stats_onto(
        &self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> (Schedule, IlpOutcome, IlpStats) {
        let total: usize = jobs.iter().map(|j| j.num_tasks()).sum();
        let slots = cluster.total_slots();
        if total == 0 {
            return (Schedule::new(), IlpOutcome::Exact, IlpStats::default());
        }
        // The list plan is the answer when the batch is too large to
        // search, when it is provably optimal, and when the solver errs or
        // its answer fails the audit.
        let list = DspListScheduler::default().schedule_onto(jobs, cluster, at, node_avail);
        if total > MAX_TASKS || slots > MAX_SLOTS {
            return (list, IlpOutcome::Fallback, IlpStats::default());
        }
        if meets_lower_bound(&list, jobs, cluster, at, node_avail) {
            return (list, IlpOutcome::Exact, IlpStats::default());
        }
        // Deadlines may make the model infeasible; the paper's system still
        // must emit a schedule, so retry once without them. Any other error
        // (budget or iteration limit spent) would only be spent again.
        let solved = match self.solve_exact(jobs, cluster, at, node_avail, true) {
            Err(LpError::Infeasible) => self.solve_exact(jobs, cluster, at, node_avail, false),
            r => r,
        };
        match solved {
            Ok((plan, outcome, stats)) => (plan.unwrap_or(list), outcome, stats),
            Err(_) => (list, IlpOutcome::Fallback, IlpStats::default()),
        }
    }

    /// Solve the model. A point that fails its audit yields no schedule,
    /// `Fallback` and `stats.audit_failures` = 1: the caller's list plan
    /// stands in.
    fn solve_exact(
        &self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
        with_deadlines: bool,
    ) -> Result<(Option<Schedule>, IlpOutcome, IlpStats), LpError> {
        let model = Model::build(jobs, cluster, at, node_avail, with_deadlines);
        let opts = MilpOptions {
            max_nodes: self.limits.max_bb_nodes,
            warm_start: self.limits.warm_start,
            ..MilpOptions::default()
        };
        let sol = solve_milp(&model.problem, opts)?;
        let mut stats = IlpStats {
            nodes: sol.nodes,
            pivots: sol.pivots,
            warm_hits: sol.warm_hits,
            rounds: sol.rounds,
            per_worker: sol.per_worker,
            audit_failures: 0,
        };
        let Some(schedule) = model.read_back(&sol.x, jobs, cluster, at) else {
            stats.audit_failures = 1;
            return Ok((None, IlpOutcome::Fallback, stats));
        };
        let outcome = match sol.status {
            Status::Optimal => IlpOutcome::Exact,
            _ => IlpOutcome::Incumbent,
        };
        Ok((Some(schedule), outcome, stats))
    }
}

/// Is `plan` provably optimal, so that the MILP could only match it? Its
/// planned makespan (latest estimated finish, from `at`) must equal
/// [`makespan_lower_bound`], and it must pass R1–R4 with no finding: R1–R3
/// as [`Model::read_back`] audits, R4 standing for the model's `dl` rows (a
/// deadline at or past the serial horizon cannot bind on a plan that meets
/// the bound, which is at most that horizon).
fn meets_lower_bound(
    plan: &Schedule,
    jobs: &[Job],
    cluster: &ClusterSpec,
    at: Time,
    node_avail: &[Time],
) -> bool {
    // An assignment naming no job of the batch is R1's to report.
    let finish = |a: &dsp_sim::Assignment| {
        Some(a.planned_finish(jobs.iter().find(|j| j.id == a.task.job)?, cluster))
    };
    let latest = plan.assignments.iter().filter_map(finish).max().unwrap_or(at);
    let bound = makespan_lower_bound(jobs, cluster, at, node_avail);
    debug_assert!(latest.since(at) >= bound, "the list plan beat the lower bound");
    latest.since(at) == bound
        && check_schedule(plan, jobs, cluster, &VerifyOptions::default()).is_empty()
}

/// `dsp-lp` accepts a binary within this distance of 0 or 1; times `big_m`
/// that is how far an accepted point may sit inside a disjunctive row, on
/// top of the tableau's own drift (1 µs on `ilp_exact` seed 2030's instance
/// 179, whose binaries are exactly integral).
const INT_TOL: f64 = 1e-6;

/// One task of the flattened batch (job-major, task index ascending).
struct FlatTask {
    job: usize,
    v: u32,
    /// Estimated execution time per virtual slot.
    exec: Vec<Dur>,
    /// Flat indices of the task's DAG parents.
    parents: Vec<usize>,
}

/// What `solve_exact` hands to `solve_milp`, and the handles by which
/// [`Model::read_back`] takes the answer back.
struct Model {
    problem: Problem,
    makespan: VarId,
    starts: Vec<VarId>,
    x: Vec<Vec<VarId>>,
    tasks: Vec<FlatTask>,
    /// Physical node of each virtual single-slot node.
    vnodes: Vec<NodeId>,
    /// Backlog drain per virtual slot, measured from `at`.
    rel: Vec<Dur>,
    /// Every flat index, each job in a topological order of its DAG.
    topo: Vec<usize>,
    big_m: f64,
}

/// `related[u * n + v]`: flat task `u` is an ancestor of flat task `v`.
/// `topo` must list parents before children.
fn ancestor_closure(tasks: &[FlatTask], topo: &[usize]) -> Vec<bool> {
    let n = tasks.len();
    let mut related = vec![false; n * n];
    for &v in topo {
        for &p in &tasks[v].parents {
            related[p * n + v] = true;
            for u in 0..n {
                related[u * n + v] |= related[u * n + p];
            }
        }
    }
    related
}

/// The pairs `u < v` precedence leaves unordered — the only ones that need
/// an ordering binary and disjunctive rows.
fn free_pairs(related: &[bool], n: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..n)
        .flat_map(move |u| (u + 1..n).map(move |v| (u, v)))
        .filter(move |&(u, v)| !related[u * n + v] && !related[v * n + u])
}

impl Model {
    fn build(
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
        with_deadlines: bool,
    ) -> Model {
        // Virtual single-slot nodes: the physical id per slot.
        let vnodes: Vec<NodeId> =
            cluster.nodes.iter().flat_map(|n| std::iter::repeat_n(n.id, n.slots)).collect();
        let k_count = vnodes.len();
        let mean = cluster.mean_rate();

        // Flatten tasks with their per-slot exec times and relative
        // deadlines (seconds); infinite for a job carrying the `Time::MAX`
        // "no deadline" sentinel.
        let mut tasks: Vec<FlatTask> = Vec::new();
        let mut deadline: Vec<f64> = Vec::new();
        let mut topo: Vec<usize> = Vec::new();
        // DAG edges parent-major, children in insertion order: the order
        // of the `prec` rows, which the pinned solver path depends on.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            let base = tasks.len();
            let est = job.exec_estimates(mean);
            let dls = level_deadlines(&job.dag, job.levels(), job.deadline, &est);
            topo.extend(job.dag.topo_order().into_iter().map(|v| base + v as usize));
            for v in 0..job.num_tasks() as u32 {
                let exec = vnodes
                    .iter()
                    .map(|nid| job.task(v).est_exec_time(cluster.node(*nid).rate()))
                    .collect();
                let parents = job.dag.parents(v).iter().map(|&p| base + p as usize).collect();
                edges.extend(
                    job.dag.children(v).iter().map(|&c| (base + v as usize, base + c as usize)),
                );
                tasks.push(FlatTask { job: j, v, exec, parents });
                deadline.push(if job.deadline == Time::MAX {
                    f64::INFINITY
                } else {
                    dls[v as usize].since(at).as_secs_f64()
                });
            }
        }
        let n = tasks.len();
        let secs = |t: usize, k: usize| tasks[t].exec[k].as_secs_f64();
        // A virtual slot shares its physical node's drain estimate.
        let rel: Vec<Dur> = vnodes
            .iter()
            .map(|nid| node_avail.get(nid.idx()).map_or(Dur::ZERO, |t| t.since(at)))
            .collect();
        // Worst-case serial completion: every optimal schedule (all tasks
        // on one slot, behind its backlog, is feasible) ends by `horizon`.
        let serial: f64 =
            (0..n).map(|t| (0..k_count).map(|k| secs(t, k)).fold(0.0, f64::max)).sum();
        let horizon = serial + rel.iter().max().map_or(0.0, |r| r.as_secs_f64());
        let big_m = serial.max(1.0) * 2.0;

        // Slot symmetry: a slot's position among the earlier slots it is
        // interchangeable with (same exec time for every task, same
        // backlog) caps it to tasks of at least that rank in `topo`.
        let position: Vec<usize> = (0..k_count)
            .map(|k| {
                let same =
                    |j: usize| rel[j] == rel[k] && tasks.iter().all(|t| t.exec[j] == t.exec[k]);
                (0..k).filter(|&j| same(j)).count()
            })
            .collect();
        let mut rank = vec![0; n];
        topo.iter().enumerate().for_each(|(r, &t)| rank[t] = r);

        let mut p = Problem::new(Sense::Min);
        let makespan = p.add_var("L", 0.0, f64::INFINITY, 1.0);
        let starts: Vec<VarId> =
            (0..n).map(|t| p.add_var(format!("s{t}"), 0.0, f64::INFINITY, 0.0)).collect();
        // `assign` (Σ_k x = 1, x ≥ 0) already keeps each x ≤ 1: declared
        // on [0, ∞) it costs no `x ≤ 1` row and slack column, with the same
        // relaxation and the same integer points.
        let x: Vec<Vec<VarId>> = (0..n)
            .map(|t| {
                (0..k_count)
                    .map(|k| {
                        let hi = if position[k] > rank[t] { 0.0 } else { f64::INFINITY };
                        p.add_int_var(format!("x{t}_{k}"), 0.0, hi, 0.0)
                    })
                    .collect()
            })
            .collect();
        // c_t = s_t + Σ_k e_{t,k} x_{t,k}, the task's completion, plus `head`.
        let completion = |t: usize, head: Vec<(VarId, f64)>, sign: f64| {
            let mut terms = head;
            terms.extend(x[t].iter().enumerate().map(|(k, &xv)| (xv, sign * secs(t, k))));
            terms
        };
        let mut is_sink = vec![true; n];
        tasks.iter().flat_map(|t| &t.parents).for_each(|&p| is_sink[p] = false);

        for t in 0..n {
            // Each task on exactly one slot (Σ_k x = 1).
            p.add_constraint(
                format!("assign{t}"),
                x[t].iter().map(|&v| (v, 1.0)).collect(),
                Cmp::Eq,
                1.0,
            );
            // Makespan: L ≥ c_t (constraint (4) with min start = 0). A task
            // with children finishes before they start, so only sinks bind.
            if is_sink[t] {
                let terms = completion(t, vec![(makespan, -1.0), (starts[t], 1.0)], 1.0);
                p.add_constraint(format!("mk{t}"), terms, Cmp::Le, 0.0);
            }
            // Deadline (constraint (6)); one at or past the horizon cannot
            // bind on an optimal schedule.
            if with_deadlines && deadline[t] < horizon {
                let terms = completion(t, vec![(starts[t], 1.0)], 1.0);
                p.add_constraint(format!("dl{t}"), terms, Cmp::Le, deadline[t]);
            }
        }

        // Slot release times from backlog (constraint (5)): if task t is
        // assigned to slot k, its start cannot precede the slot's drain.
        // Linear form: s_t ≥ Σ_k rel_k · x_{t,k} (exact since Σ_k x = 1).
        if rel.iter().any(|r| !r.is_zero()) {
            for t in 0..n {
                let mut terms = vec![(starts[t], 1.0)];
                terms.extend(x[t].iter().zip(&rel).map(|(&xv, r)| (xv, -r.as_secs_f64())));
                p.add_constraint(format!("rel{t}"), terms, Cmp::Ge, 0.0);
            }
        }

        // Precedence (constraint (7)): s_v ≥ c_u for every edge.
        for &(u, v) in &edges {
            let terms = completion(u, vec![(starts[v], 1.0), (starts[u], -1.0)], -1.0);
            p.add_constraint(format!("prec{u}_{v}"), terms, Cmp::Ge, 0.0);
        }

        // Disjunctive ordering per slot (constraints (5)/(8)) with big-M,
        // for the pairs precedence does not already order on every slot.
        let related = ancestor_closure(&tasks, &topo);
        for (u, v) in free_pairs(&related, n) {
            let y = p.add_bin_var(format!("y{u}_{v}"), 0.0);
            // `k` indexes `x[u]`, `x[v]` and both tasks' exec times; an
            // iterator form would obscure the constraint algebra.
            #[allow(clippy::needless_range_loop)]
            for k in 0..k_count {
                // u before v when y=1, both on slot k:
                // s_u + e_u ≤ s_v + M(1−y) + M(1−x_u) + M(1−x_v)
                p.add_constraint(
                    format!("d{u}b{v}k{k}"),
                    vec![
                        (starts[u], 1.0),
                        (starts[v], -1.0),
                        (y, big_m),
                        (x[u][k], big_m),
                        (x[v][k], big_m),
                    ],
                    Cmp::Le,
                    3.0 * big_m - secs(u, k),
                );
                // v before u when y=0:
                p.add_constraint(
                    format!("d{v}b{u}k{k}"),
                    vec![
                        (starts[v], 1.0),
                        (starts[u], -1.0),
                        (y, -big_m),
                        (x[u][k], big_m),
                        (x[v][k], big_m),
                    ],
                    Cmp::Le,
                    2.0 * big_m - secs(v, k),
                );
            }
        }
        Model { problem: p, makespan, starts, x, tasks, vnodes, rel, topo, big_m }
    }

    /// Turn an accepted MILP point into a schedule, taking from it only the
    /// combinatorial answer: the slot of each task (arg-max `x`) and the
    /// order of the tasks (by `s`, precedence breaking ties). Starts are
    /// re-derived in integer microseconds by one forward pass — a task
    /// starts when its parents have finished, its slot is free and the
    /// slot's backlog has drained — so integrality residue times `big_m`
    /// cannot leak into the plan. `None` when the point does not survive
    /// the audit: the order contradicts precedence, the plan fails R1–R3,
    /// or its makespan exceeds `L` by more than that residue explains.
    fn read_back(
        &self,
        point: &[f64],
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
    ) -> Option<Schedule> {
        let n = self.tasks.len();
        let slot_of = |t: usize| {
            (0..self.vnodes.len())
                .max_by(|&a, &b| point[self.x[t][a].0].total_cmp(&point[self.x[t][b].0]))
                .expect("a searched cluster has a slot")
        };
        let lp_start = |t: usize| point[self.starts[t].0];
        // (topological rank, task): equal starts keep parents first.
        let mut order: Vec<(usize, usize)> = self.topo.iter().copied().enumerate().collect();
        order.sort_by(|a, b| lp_start(a.1).total_cmp(&lp_start(b.1)).then(a.0.cmp(&b.0)));

        let mut slot_free: Vec<Time> = self.rel.iter().map(|&r| at + r).collect();
        let mut placed: Vec<Option<(usize, Time, Time)>> = vec![None; n];
        for (_, t) in order {
            let k = slot_of(t);
            let mut start = slot_free[k];
            for &p in &self.tasks[t].parents {
                start = start.max(placed[p]?.2);
            }
            let finish = start + self.tasks[t].exec[k];
            slot_free[k] = finish;
            placed[t] = Some((k, start, finish));
        }

        let mut schedule = Schedule::new();
        let mut latest = at;
        for (task, slot) in self.tasks.iter().zip(placed) {
            let (k, start, finish) = slot.expect("the forward pass placed every task");
            schedule.assign(jobs[task.job].task_id(task.v), self.vnodes[k], start);
            latest = latest.max(finish);
        }
        // The point's `L` may undercut what its own slots and order can
        // achieve by the residue above on each link of the critical chain,
        // and each re-derived start is a rounded microsecond.
        let slack = n as f64 * (3.0 * INT_TOL * self.big_m + 1e-6);
        let planned = VerifyOptions { check_deadlines: false, ..VerifyOptions::default() };
        (latest.since(at).as_secs_f64() <= point[self.makespan.0] + slack
            && check_schedule(&schedule, jobs, cluster, &planned).passes())
        .then_some(schedule)
    }
}

impl Scheduler for DspIlpScheduler {
    fn name(&self) -> &str {
        "DSP-ILP"
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        self.schedule_with_stats_onto(jobs, cluster, at, node_avail).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::schedule_covers_jobs;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    fn job_with(id: u32, n: usize, edges: &[(u32, u32)], deadline_s: u64) -> Job {
        let mut dag = Dag::new(n);
        for &(u, v) in edges {
            dag.add_edge(u, v).unwrap();
        }
        Job::new(
            JobId(id),
            JobClass::Small,
            Time::ZERO,
            Time::from_secs(deadline_s),
            vec![TaskSpec::sized(1000.0); n],
            dag,
        )
    }

    fn planned_makespan(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec) -> Dur {
        // Every task: start + exec on its node; makespan = max − min start.
        let mean = cluster.mean_rate();
        let _ = mean;
        let mut earliest = Time::MAX;
        let mut latest = Time::ZERO;
        for a in &s.assignments {
            let job = jobs.iter().find(|j| j.id == a.task.job).unwrap();
            let exec = job.task(a.task.index).exec_time(cluster.node(a.node).rate());
            earliest = earliest.min(a.start);
            latest = latest.max(a.start + exec);
        }
        latest.since(earliest)
    }

    #[test]
    fn two_independent_tasks_run_in_parallel() {
        let jobs = vec![job_with(0, 2, &[], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let (s, outcome, _) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(1));
    }

    #[test]
    fn chain_is_serialized() {
        let jobs = vec![job_with(0, 3, &[(0, 1), (1, 2)], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let (s, outcome, _) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(3));
    }

    #[test]
    fn single_slot_serializes_independent_tasks() {
        let jobs = vec![job_with(0, 3, &[], 3600)];
        let cluster = uniform(1, 1000.0, 1);
        let (s, outcome, _) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(3));
        // No two tasks overlap on the single slot.
        let mut starts: Vec<_> = s.assignments.iter().map(|a| a.start).collect();
        starts.sort();
        assert!(starts.windows(2).all(|w| w[1] >= w[0] + Dur::from_secs(1)));
    }

    #[test]
    fn multi_slot_node_expands_to_virtual_slots() {
        // One physical node with 2 slots behaves like two parallel slots.
        let jobs = vec![job_with(0, 2, &[], 3600)];
        let cluster = uniform(1, 1000.0, 2);
        let (s, outcome, _) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(1));
        assert!(s.assignments.iter().all(|a| a.node == dsp_cluster::NodeId(0)));
    }

    #[test]
    fn exact_never_beats_lower_bound_and_matches_diamond_optimum() {
        // Diamond on 2 nodes: optimum 3 s (critical path).
        let jobs = vec![job_with(0, 4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let (s, outcome, _) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(3));
    }

    #[test]
    fn oversize_instance_falls_back_to_list() {
        let jobs = vec![job_with(0, 40, &[], 3600)];
        let cluster = uniform(4, 1000.0, 2);
        let (s, outcome, _) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Fallback);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
    }

    /// Drawn by `router_determinism` on its first run against the in-tree
    /// generator: chains of 3, 4 and 1 tasks, no deadlines, a 4-slot shard.
    /// `Time::MAX` reached the model as a 1.8e13 s right-hand side and the
    /// solve with deadlines cycled to its iteration limit (two minutes,
    /// optimized) before the retry without them answered. No deadline must
    /// mean no constraint (6) row: the same model either way. The same
    /// batch once ran nine warm dual re-entries to `dsp-lp`'s ~100 000-pivot
    /// limit each, pivoting on ~1e-9 entries, and needed a per-re-entry cap;
    /// uncapped, the whole tree must stay within 10 000 pivots.
    #[test]
    fn jobs_without_deadlines_add_no_deadline_rows() {
        let chain = |id: u32, n: usize| {
            let mut dag = Dag::new(n);
            for t in 1..n as u32 {
                dag.add_edge(t - 1, t).unwrap();
            }
            let tasks = (0..n).map(|t| TaskSpec::sized(1_000.0 + t as f64 * 613.0)).collect();
            Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::MAX, tasks, dag)
        };
        let jobs = vec![chain(0, 3), chain(1, 4), chain(2, 1)];
        let cluster = uniform(2, 1000.0, 2);
        let ilp = DspIlpScheduler::default();
        let with = ilp.solve_exact(&jobs, &cluster, Time::ZERO, &[], true).expect("solvable");
        let without = ilp.solve_exact(&jobs, &cluster, Time::ZERO, &[], false).expect("solvable");
        assert_eq!(with.1, IlpOutcome::Exact);
        assert_eq!((with.0, with.2.pivots), (without.0, without.2.pivots));
        assert!(with.2.pivots <= 10_000, "{} pivots", with.2.pivots);
    }

    /// (variables, binaries, rows) of the model built for `jobs`.
    fn model_size(jobs: &[Job], cluster: &ClusterSpec, with_deadlines: bool) -> [usize; 3] {
        let p = Model::build(jobs, cluster, Time::ZERO, &[], with_deadlines).problem;
        [p.num_vars(), p.integer_vars().len(), p.num_constraints()]
    }

    #[test]
    fn a_chain_builds_no_ordering_binaries_and_no_disjunctive_rows() {
        // Precedence orders every pair of a chain on every slot: L, 5 starts
        // and 5 × 2 `x`; 5 assign rows, the sink's `mk`, 4 `prec` — where
        // the full pairwise model adds 10 `y` and 40 big-M rows, 4 more `mk`
        // and (an hour's deadline against 5 s of work) 5 `dl`.
        let jobs = vec![job_with(0, 5, &[(0, 1), (1, 2), (2, 3), (3, 4)], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        assert_eq!(model_size(&jobs, &cluster, true), [1 + 5 + 10, 10, 5 + 1 + 4]);
    }

    #[test]
    fn a_fork_orders_only_its_siblings() {
        let jobs = vec![job_with(0, 4, &[(0, 1), (0, 2), (0, 3)], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let model = Model::build(&jobs, &cluster, Time::ZERO, &[], true);
        let related = ancestor_closure(&model.tasks, &model.topo);
        assert_eq!(free_pairs(&related, 4).collect::<Vec<_>>(), [(1, 2), (1, 3), (2, 3)]);
        // 8 `x` + 3 `y`; 4 assign, 3 sinks' `mk`, 3 `prec`, 3 pairs × 2
        // slots × 2 directions.
        assert_eq!(model_size(&jobs, &cluster, true), [1 + 4 + 8 + 3, 8 + 3, 4 + 3 + 3 + 12]);
    }

    /// How many `x` the slot-class rule fixes at 0 for four independent
    /// tasks (ranks 0–3) on `cluster` behind `node_avail`.
    fn zero_bounded(cluster: &ClusterSpec, node_avail: &[Time]) -> usize {
        let jobs = vec![job_with(0, 4, &[], 3600)];
        let model = Model::build(&jobs, cluster, Time::ZERO, node_avail, true);
        model.x.iter().flatten().filter(|&&v| model.problem.bounds(v) == (0.0, 0.0)).count()
    }

    /// Two nodes, node 1 at 1.5× node 0's rate.
    fn mixed(slots: usize) -> ClusterSpec {
        let mut cluster = uniform(2, 1000.0, slots);
        (cluster.nodes[1].s_cpu, cluster.nodes[1].s_mem) = (1500.0, 1500.0);
        cluster
    }

    #[test]
    fn each_slot_class_is_labelled_once() {
        let backlog = [Time::from_millis(300), Time::ZERO];
        // One class of 2: the rank-0 task stays off position 1.
        assert_eq!(zero_bounded(&uniform(2, 1000.0, 1), &[]), 1);
        // One class of 4: ranks 0, 1, 2 keep off 3, 2, 1 positions.
        assert_eq!(zero_bounded(&uniform(2, 1000.0, 2), &[]), 3 + 2 + 1);
        // Two classes of 2, split by rate or by backlog.
        assert_eq!(zero_bounded(&mixed(2), &[]), 2);
        assert_eq!(zero_bounded(&uniform(2, 1000.0, 2), &backlog), 2);
        assert_eq!(zero_bounded(&uniform(2, 1000.0, 1), &backlog), 0);
    }

    #[test]
    fn without_an_interchangeable_pair_the_model_is_unchanged() {
        let jobs = vec![job_with(0, 4, &[], 3600)];
        let cluster = mixed(1);
        assert_eq!(zero_bounded(&cluster, &[]), 0);
        let model = Model::build(&jobs, &cluster, Time::ZERO, &[], true);
        assert!(model.x.iter().flatten().all(|&v| model.problem.bounds(v) == (0.0, f64::INFINITY)));
        // L, 4 starts, 8 `x`, 6 `y`; 4 assign, 4 `mk`, 6 pairs × 2 slots ×
        // 2 directions.
        assert_eq!(model_size(&jobs, &cluster, true), [1 + 4 + 8 + 6, 8 + 6, 4 + 4 + 24]);
    }

    #[test]
    fn infeasible_deadline_retries_without() {
        // 3-chain with a 1 s deadline cannot meet constraint (6); the
        // scheduler must still produce a full schedule, and an exact one:
        // infeasibility is the one error the deadline-free retry answers.
        let jobs = vec![job_with(0, 3, &[(0, 1), (1, 2)], 1)];
        let cluster = uniform(1, 1000.0, 1);
        // Every level deadline is below the 3 s horizon: each keeps its row.
        let [_, _, rows] = model_size(&jobs, &cluster, false);
        assert_eq!(model_size(&jobs, &cluster, true)[2], rows + 3);
        let ilp = DspIlpScheduler::default();
        let first = ilp.solve_exact(&jobs, &cluster, Time::ZERO, &[], true);
        assert_eq!(first.err(), Some(LpError::Infeasible));
        let (s, outcome, _) = ilp.schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(3));
    }

    #[test]
    fn a_list_plan_at_the_bound_that_misses_a_deadline_row_is_not_the_answer() {
        // One slot: the list arm runs the longer task first (higher upward
        // rank), so its plan ends at the 3 s load bound but the 1 s task
        // misses its 1 s deadline — a `dl` row the model builds (1 s is
        // below the 3 s horizon). The MILP must run and order it first.
        let single = |id: u32, mi: f64, deadline_s: u64| {
            let tasks = vec![TaskSpec::sized(mi)];
            let deadline = Time::from_secs(deadline_s);
            Job::new(JobId(id), JobClass::Small, Time::ZERO, deadline, tasks, Dag::new(1))
        };
        let jobs = vec![single(0, 2000.0, 3600), single(1, 1000.0, 1)];
        let cluster = uniform(1, 1000.0, 1);
        let list = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        assert_eq!(planned_makespan(&list, &jobs, &cluster), Dur::from_secs(3));
        assert_eq!(makespan_lower_bound(&jobs, &cluster, Time::ZERO, &[]), Dur::from_secs(3));
        let report = check_schedule(&list, &jobs, &cluster, &VerifyOptions::default());
        assert_eq!((report.count(dsp_verify::Rule::Deadline), report.len()), (1, 1));
        assert!(!meets_lower_bound(&list, &jobs, &cluster, Time::ZERO, &[]));

        let (s, outcome, stats) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert!(stats.nodes > 0 && stats.pivots > 0, "{stats:?}");
        assert!(check_schedule(&s, &jobs, &cluster, &VerifyOptions::default()).is_empty());
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(3));
    }

    #[test]
    fn spent_budget_goes_straight_to_the_list_fallback() {
        // One B&B node cannot settle five tasks. Dropping the deadline rows
        // would not make the budget larger, so there is no second solve:
        // whatever the first one leaves (an incumbent, or nothing and the
        // list schedule) is the answer, and the same answer every time.
        let jobs = vec![job_with(0, 5, &[(0, 1), (0, 2)], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let limits = IlpLimits { max_bb_nodes: 1, ..IlpLimits::default() };
        let ilp = DspIlpScheduler { limits };
        let first = ilp.solve_exact(&jobs, &cluster, Time::ZERO, &[], true);
        assert_ne!(first.as_ref().err(), Some(&LpError::Infeasible));
        let a = ilp.schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        let b = ilp.schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert!(matches!(a.1, IlpOutcome::Incumbent | IlpOutcome::Fallback), "{:?}", a.1);
        assert!(schedule_covers_jobs(&a.0, &jobs, &cluster));
        assert_eq!(a, b);
    }

    #[test]
    fn warm_start_matches_cold_on_fig5_instances() {
        // The Fig. 5 small-instance shapes (independent pair, chain,
        // diamond, two-job mix) must produce identical planned makespans
        // with and without warm starts, and warm must pivot strictly less
        // in aggregate. (The trees themselves may differ: a dual re-entry
        // can land on a different optimal vertex than a cold solve when the
        // LP has alternate optima, changing the branching order — the
        // proven objective is what must agree.) The MILP is called
        // directly: the list plan meets the lower bound on all four, so the
        // scheduler would answer without pivoting either way.
        let instances: Vec<Vec<Job>> = vec![
            vec![job_with(0, 2, &[], 3600)],
            vec![job_with(0, 3, &[(0, 1), (1, 2)], 3600)],
            vec![job_with(0, 4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 3600)],
            vec![job_with(0, 4, &[(0, 2), (1, 2)], 3600), job_with(1, 2, &[], 3600)],
        ];
        let cluster = uniform(2, 1000.0, 1);
        let warm_sched = DspIlpScheduler::default();
        let cold_sched =
            DspIlpScheduler { limits: IlpLimits { warm_start: false, ..IlpLimits::default() } };
        let mut total_warm_pivots = 0usize;
        let mut total_cold_pivots = 0usize;
        for jobs in &instances {
            let solve = |ilp: &DspIlpScheduler| {
                let (plan, outcome, stats) =
                    ilp.solve_exact(jobs, &cluster, Time::ZERO, &[], true).expect("solvable");
                (plan.expect("the point passes its audit"), outcome, stats)
            };
            let ((ws, wo, wstats), (cs, co, cstats)) = (solve(&warm_sched), solve(&cold_sched));
            assert_eq!(wo, IlpOutcome::Exact);
            assert_eq!(co, IlpOutcome::Exact);
            assert_eq!(
                planned_makespan(&ws, jobs, &cluster),
                planned_makespan(&cs, jobs, &cluster),
                "warm and cold objective diverged"
            );
            assert_eq!(cstats.warm_hits, 0);
            let short = warm_sched.schedule_with_stats_onto(jobs, &cluster, Time::ZERO, &[]);
            assert_eq!((short.1, short.2), (IlpOutcome::Exact, IlpStats::default()));
            total_warm_pivots += wstats.pivots;
            total_cold_pivots += cstats.pivots;
        }
        assert!(
            total_warm_pivots < total_cold_pivots,
            "warm start did not reduce pivots: {total_warm_pivots} vs {total_cold_pivots}"
        );
    }

    #[test]
    fn ilp_matches_or_beats_list_on_small_instances() {
        let jobs = vec![job_with(0, 4, &[(0, 2), (1, 2)], 3600), job_with(1, 2, &[], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let (ilp, outcome, _) =
            DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
        assert_eq!(outcome, IlpOutcome::Exact);
        let list = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        assert!(
            planned_makespan(&ilp, &jobs, &cluster) <= planned_makespan(&list, &jobs, &cluster)
        );
    }
}
