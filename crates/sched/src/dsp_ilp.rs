//! The exact Section III MILP, solved with the `dsp-lp` branch-and-bound.
//!
//! The paper's formulation (3)–(11) contains bilinear terms (`t^s_ij ·
//! x_ij,k`); we apply the standard linearization: one binary `x_{t,k}` per
//! task×slot, one continuous start `s_t`, one ordering binary `y_{u,v}` per
//! unordered task pair, and big-M disjunctive constraints that only bind
//! when both tasks land on the same slot (constraints (5)/(8)). Multi-slot
//! nodes are expanded into *virtual single-slot nodes* sharing the physical
//! node's rate, which makes the disjunctive model exact under the paper's
//! slot semantics. The offline plan estimates `N^p = 0` preemptions (the
//! online phase, not the plan, pays for preemptions that actually happen).
//!
//! Exact search is reserved for small instances. The paper, noting the
//! problem is NP-complete, relaxes and rounds beyond them; this scheduler
//! has no rounding tier and falls back to [`DspListScheduler`], the
//! practical arm, whenever the instance exceeds [`IlpLimits`] or the
//! solver's node budget runs out.

use crate::api::Scheduler;
use crate::dsp_list::DspListScheduler;
use dsp_cluster::{ClusterSpec, NodeId};
use dsp_dag::{deadline::level_deadlines, Job};
use dsp_lp::{
    solve_milp, Cmp, LpError, MilpOptions, Problem, Sense, Status, VarId, WorkerCounters,
};
use dsp_sim::Schedule;
use dsp_units::Time;

/// Instance-size gate for exact solving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpLimits {
    /// Maximum total tasks in the batch.
    pub max_tasks: usize,
    /// Maximum virtual (single-slot) nodes.
    pub max_slots: usize,
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
        IlpLimits {
            max_tasks: 10,
            max_slots: 4,
            max_bb_nodes: 20_000,
            warm_start: true,
            threads: 0,
        }
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
    /// Frontier rounds taken by the B&B engine.
    pub rounds: usize,
    /// `MilpSolution::per_worker` of that solve: one entry, or empty when
    /// the MILP was never touched. Present until the benchmark's
    /// `lp.workers` reader goes.
    pub per_worker: Vec<WorkerCounters>,
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
    /// Exact MILP solved to proven optimality.
    Exact,
    /// Exact MILP returned a feasible incumbent (budget exhausted).
    Incumbent,
    /// Fell back to the list heuristic.
    Fallback,
}

impl DspIlpScheduler {
    /// Schedule and report which arm ran.
    pub fn schedule_with_outcome(
        &self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
    ) -> (Schedule, IlpOutcome) {
        self.schedule_with_outcome_onto(jobs, cluster, at, &[])
    }

    /// [`Self::schedule_with_outcome`] with per-node backlog release times
    /// (constraint (5)): no task may start on a slot before the slot's
    /// earlier queue drains.
    pub fn schedule_with_outcome_onto(
        &self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> (Schedule, IlpOutcome) {
        let (s, o, _) = self.schedule_with_stats_onto(jobs, cluster, at, node_avail);
        (s, o)
    }

    /// [`Self::schedule_with_outcome_onto`] plus solver effort counters
    /// (zeros when the list fallback ran without touching the MILP).
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
        if total > self.limits.max_tasks || slots > self.limits.max_slots {
            return self.fallback(jobs, cluster, at, node_avail);
        }
        // Deadlines may make the model infeasible; the paper's system still
        // must emit a schedule, so retry once without them. Any other error
        // (budget or iteration limit spent) would only be spent again.
        let solved = match self.solve_exact(jobs, cluster, at, node_avail, true) {
            Err(LpError::Infeasible) => self.solve_exact(jobs, cluster, at, node_avail, false),
            r => r,
        };
        solved.unwrap_or_else(|_| self.fallback(jobs, cluster, at, node_avail))
    }

    /// The list heuristic's schedule, with the stats of a MILP never solved.
    fn fallback(
        &self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> (Schedule, IlpOutcome, IlpStats) {
        let schedule = DspListScheduler::default().schedule_onto(jobs, cluster, at, node_avail);
        (schedule, IlpOutcome::Fallback, IlpStats::default())
    }

    fn solve_exact(
        &self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
        with_deadlines: bool,
    ) -> Result<(Schedule, IlpOutcome, IlpStats), LpError> {
        // Virtual single-slot nodes.
        let mut vnodes: Vec<NodeId> = Vec::new(); // physical id per slot
        for n in &cluster.nodes {
            for _ in 0..n.slots {
                vnodes.push(n.id);
            }
        }
        let k_count = vnodes.len();
        let mean = cluster.mean_rate();

        // Flatten tasks with their per-vnode exec times (seconds) and
        // relative deadlines; infinite for a job carrying the `Time::MAX`
        // "no deadline" sentinel, which as a number is ~1.8e13 s — a
        // constraint (6) row with that right-hand side never binds but
        // drowns the ratio tests' 1e-9 tolerances in rounding error.
        struct T {
            job: usize,
            v: u32,
            exec: Vec<f64>,
            deadline: f64,
        }
        let mut tasks: Vec<T> = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            let est = job.exec_estimates(mean);
            let dls = level_deadlines(&job.dag, job.levels(), job.deadline, &est);
            for v in 0..job.num_tasks() as u32 {
                let exec = vnodes
                    .iter()
                    .map(|nid| job.task(v).est_exec_time(cluster.node(*nid).rate()).as_secs_f64())
                    .collect();
                tasks.push(T {
                    job: j,
                    v,
                    exec,
                    deadline: if job.deadline == Time::MAX {
                        f64::INFINITY
                    } else {
                        dls[v as usize].since(at).as_secs_f64()
                    },
                });
            }
        }
        let n = tasks.len();
        // Big-M: worst-case serial completion.
        let big_m: f64 =
            tasks.iter().map(|t| t.exec.iter().cloned().fold(0.0, f64::max)).sum::<f64>().max(1.0)
                * 2.0;

        let mut p = Problem::new(Sense::Min);
        let makespan = p.add_var("L", 0.0, f64::INFINITY, 1.0);
        let starts: Vec<VarId> =
            (0..n).map(|t| p.add_var(format!("s{t}"), 0.0, f64::INFINITY, 0.0)).collect();
        let x: Vec<Vec<VarId>> = (0..n)
            .map(|t| (0..k_count).map(|k| p.add_bin_var(format!("x{t}_{k}"), 0.0)).collect())
            .collect();

        for t in 0..n {
            // Each task on exactly one slot (Σ_k x = 1).
            p.add_constraint(
                format!("assign{t}"),
                x[t].iter().map(|&v| (v, 1.0)).collect(),
                Cmp::Eq,
                1.0,
            );
            // Completion: c_t = s_t + Σ_k e_{t,k} x_{t,k}.
            // Makespan: L ≥ c_t  (constraint (4) with min start = 0).
            let mut terms = vec![(makespan, -1.0), (starts[t], 1.0)];
            terms.extend(x[t].iter().enumerate().map(|(k, &xv)| (xv, tasks[t].exec[k])));
            p.add_constraint(format!("mk{t}"), terms, Cmp::Le, 0.0);
            // Deadline (constraint (6)).
            if with_deadlines && tasks[t].deadline.is_finite() {
                let mut terms = vec![(starts[t], 1.0)];
                terms.extend(x[t].iter().enumerate().map(|(k, &xv)| (xv, tasks[t].exec[k])));
                p.add_constraint(format!("dl{t}"), terms, Cmp::Le, tasks[t].deadline);
            }
        }

        // Slot release times from backlog (constraint (5)): if task t is
        // assigned to slot k, its start cannot precede the slot's drain.
        // Linear form: s_t ≥ Σ_k rel_k · x_{t,k} (exact since Σ_k x = 1).
        let rel: Vec<f64> = vnodes
            .iter()
            .map(|nid| {
                // A virtual slot shares its physical node's drain estimate.
                node_avail.get(nid.idx()).map(|t| t.since(at).as_secs_f64()).unwrap_or(0.0)
            })
            .collect();
        if rel.iter().any(|&r| r > 0.0) {
            for t in 0..n {
                let mut terms = vec![(starts[t], 1.0)];
                terms.extend(x[t].iter().enumerate().map(|(k, &xv)| (xv, -rel[k])));
                p.add_constraint(format!("rel{t}"), terms, Cmp::Ge, 0.0);
            }
        }

        // Precedence (constraint (7)): s_v ≥ s_u + exec_u for every edge.
        for (u_idx, tu) in tasks.iter().enumerate() {
            for &c in jobs[tu.job].dag.children(tu.v) {
                let v_idx = tasks
                    .iter()
                    .position(|t| t.job == tu.job && t.v == c)
                    .expect("child flattened");
                let mut terms = vec![(starts[v_idx], 1.0), (starts[u_idx], -1.0)];
                terms.extend(
                    x[u_idx].iter().enumerate().map(|(k, &xv)| (xv, -tasks[u_idx].exec[k])),
                );
                p.add_constraint(format!("prec{u_idx}_{v_idx}"), terms, Cmp::Ge, 0.0);
            }
        }

        // Disjunctive ordering per slot (constraints (5)/(8)) with big-M.
        for u in 0..n {
            for v in (u + 1)..n {
                let y = p.add_bin_var(format!("y{u}_{v}"), 0.0);
                // `k` indexes four parallel arrays; an iterator form would
                // obscure the constraint algebra.
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
                        3.0 * big_m - tasks[u].exec[k],
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
                        2.0 * big_m - tasks[v].exec[k],
                    );
                }
            }
        }

        let opts = MilpOptions {
            max_nodes: self.limits.max_bb_nodes,
            warm_start: self.limits.warm_start,
            ..MilpOptions::default()
        };
        let sol = solve_milp(&p, opts)?;
        let outcome = match sol.status {
            Status::Optimal => IlpOutcome::Exact,
            _ => IlpOutcome::Incumbent,
        };
        let stats = IlpStats {
            nodes: sol.nodes,
            pivots: sol.pivots,
            warm_hits: sol.warm_hits,
            rounds: sol.rounds,
            per_worker: sol.per_worker,
        };
        let mut schedule = Schedule::new();
        for (t, task) in tasks.iter().enumerate() {
            let k = (0..k_count)
                .max_by(|&a, &b| sol.x[x[t][a].0].total_cmp(&sol.x[x[t][b].0]))
                .expect("k_count ≥ 1");
            let start = at + dsp_units::Dur::from_secs_f64(sol.x[starts[t].0]);
            schedule.assign(jobs[task.job].task_id(task.v), vnodes[k], start);
        }
        Ok((schedule, outcome, stats))
    }
}

impl Scheduler for DspIlpScheduler {
    fn name(&self) -> &str {
        "DSP-ILP"
    }

    fn schedule(&mut self, jobs: &[Job], cluster: &ClusterSpec, at: Time) -> Schedule {
        self.schedule_with_outcome(jobs, cluster, at).0
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        self.schedule_with_outcome_onto(jobs, cluster, at, node_avail).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::schedule_covers_jobs;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};
    use dsp_units::Dur;

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
        let (s, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(1));
    }

    #[test]
    fn chain_is_serialized() {
        let jobs = vec![job_with(0, 3, &[(0, 1), (1, 2)], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let (s, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(3));
    }

    #[test]
    fn single_slot_serializes_independent_tasks() {
        let jobs = vec![job_with(0, 3, &[], 3600)];
        let cluster = uniform(1, 1000.0, 1);
        let (s, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
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
        let (s, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(1));
        assert!(s.assignments.iter().all(|a| a.node == dsp_cluster::NodeId(0)));
    }

    #[test]
    fn exact_never_beats_lower_bound_and_matches_diamond_optimum() {
        // Diamond on 2 nodes: optimum 3 s (critical path).
        let jobs = vec![job_with(0, 4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 3600)];
        let cluster = uniform(2, 1000.0, 1);
        let (s, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert_eq!(planned_makespan(&s, &jobs, &cluster), Dur::from_secs(3));
    }

    #[test]
    fn oversize_instance_falls_back_to_list() {
        let jobs = vec![job_with(0, 40, &[], 3600)];
        let cluster = uniform(4, 1000.0, 2);
        let (s, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        assert_eq!(outcome, IlpOutcome::Fallback);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
    }

    /// Drawn by `router_determinism` on its first run against the in-tree
    /// generator: chains of 3, 4 and 1 tasks, no deadlines, a 4-slot shard.
    /// `Time::MAX` reached the model as a 1.8e13 s right-hand side and the
    /// solve with deadlines cycled to its iteration limit (two minutes,
    /// optimized) before the retry without them answered. No deadline must
    /// mean no constraint (6) row: the same model either way.
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
    }

    #[test]
    fn infeasible_deadline_retries_without() {
        // 3-chain with a 1 s deadline cannot meet constraint (6); the
        // scheduler must still produce a full schedule, and an exact one:
        // infeasibility is the one error the deadline-free retry answers.
        let jobs = vec![job_with(0, 3, &[(0, 1), (1, 2)], 1)];
        let cluster = uniform(1, 1000.0, 1);
        let ilp = DspIlpScheduler::default();
        let first = ilp.solve_exact(&jobs, &cluster, Time::ZERO, &[], true);
        assert_eq!(first.err(), Some(LpError::Infeasible));
        let (s, outcome) = ilp.schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        assert_eq!(outcome, IlpOutcome::Exact);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
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
        // proven objective is what must agree.)
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
            let (ws, wo, wstats) =
                warm_sched.schedule_with_stats_onto(jobs, &cluster, Time::ZERO, &[]);
            let (cs, co, cstats) =
                cold_sched.schedule_with_stats_onto(jobs, &cluster, Time::ZERO, &[]);
            assert_eq!(wo, IlpOutcome::Exact);
            assert_eq!(co, IlpOutcome::Exact);
            assert_eq!(
                planned_makespan(&ws, jobs, &cluster),
                planned_makespan(&cs, jobs, &cluster),
                "warm and cold objective diverged"
            );
            assert_eq!(cstats.warm_hits, 0);
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
        let (ilp, outcome) =
            DspIlpScheduler::default().schedule_with_outcome(&jobs, &cluster, Time::ZERO);
        assert_eq!(outcome, IlpOutcome::Exact);
        let list = DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO);
        assert!(
            planned_makespan(&ilp, &jobs, &cluster) <= planned_makespan(&list, &jobs, &cluster)
        );
    }
}
