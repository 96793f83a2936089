//! Branch-and-bound MILP driver over the simplex relaxation solver.
//!
//! The frontier is explored **best-bound first** in batched rounds, on the
//! calling thread. Three rules define the tree — and with it the returned
//! point, the proven objective and every effort counter:
//!
//! * **Pop order** — the priority queue orders by (LP bound, node
//!   seniority): best bound first, ties to the smaller (older) node id. A
//!   round pops a fixed-size batch in that order.
//! * **Frozen incumbent** — every node of a round prunes against the
//!   incumbent objective as it stood when the round was popped; the
//!   incumbent only moves *between* rounds, so a node's prune decision
//!   depends on the round number alone.
//! * **Commutative incumbent replacement** — an integral point replaces
//!   the incumbent iff its objective is strictly better, ties broken by
//!   the senior node id. That is a lattice min over (objective, id), so
//!   the final incumbent does not depend on the order a round's outcomes
//!   are folded in (they are folded in pop order).
//!
//! Each node carries a warm start ([`Branch`]: its parent's optimal
//! [`WarmLp`] tableau, shared with its sibling, plus its own branch bound)
//! and a per-variable bound overlay instead of a cloned [`Problem`] —
//! branching only ever tightens variable bounds, so the root problem's
//! constraint rows are shared by every node and a full problem clone is
//! materialized only on the (rare) cold-solve fallback path.

use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::error::{LpError, Status};
use crate::problem::{Problem, Sense, VarId};
use crate::simplex::{solve_lp, solve_lp_warm, Solution, WarmLp};

/// Integrality tolerance: values this close to an integer count as integral.
const INT_TOL: f64 = 1e-6;

/// Nodes popped per frontier round. Part of the exploration order (a node
/// popped in a round is expanded even if an earlier node of the same round
/// finds an incumbent that would have pruned it), so every pinned path
/// encodes it. 8 balances that speculation — on the pinned fig5 set,
/// batches past 8 start exploring nodes a fresher incumbent would have
/// pruned — against round frequency.
const FRONTIER_BATCH: usize = 8;

/// Search budget and solver knobs for [`solve_milp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpOptions {
    /// Maximum number of branch-and-bound nodes (LP solves).
    pub max_nodes: usize,
    /// Stop once the incumbent is within this absolute gap of the best
    /// bound.
    pub abs_gap: f64,
    /// Warm-start each child node from its parent's optimal basis by dual
    /// simplex instead of cold-solving from scratch. Falls back to a cold
    /// solve per node on any re-entry error (a reported infeasibility
    /// included) or unverified point, so the same optimum is proved either
    /// way; disable only for baseline measurements.
    pub warm_start: bool,
    /// Ignored: every solve runs on the calling thread. Present until the
    /// benchmark's `threads: 1` pins go.
    pub threads: usize,
    /// Fault-injection cap on dual-simplex pivots per warm re-entry
    /// (`None` = the solver's own generous limit). A re-entry that exceeds
    /// the cap fails over to the cold-solve path, letting tests force and
    /// observe the fallback deterministically.
    pub warm_pivot_cap: Option<usize>,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            max_nodes: 10_000,
            abs_gap: 1e-6,
            warm_start: true,
            threads: 0,
            warm_pivot_cap: None,
        }
    }
}

/// The entry type of [`MilpSolution::per_worker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Frontier nodes expanded.
    pub nodes: u64,
}

/// Result of a MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// The incumbent point (integral on all integer variables).
    pub x: Vec<f64>,
    /// Objective at the incumbent, in the problem's sense.
    pub objective: f64,
    /// Terminal status: [`Status::Optimal`] when proven, otherwise
    /// [`Status::BudgetExhausted`].
    pub status: Status,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex pivots across all node LP solves (both phases, dual
    /// re-entries included).
    pub pivots: usize,
    /// Nodes answered by a warm dual-simplex re-entry (0 when
    /// [`MilpOptions::warm_start`] is off).
    pub warm_hits: usize,
    /// Frontier rounds taken.
    pub rounds: usize,
    /// One entry (`nodes` = nodes explored) when branch-and-bound ran,
    /// empty for the pure-LP shortcut. Present until the benchmark's
    /// `lp.workers` reader goes.
    pub per_worker: Vec<WorkerCounters>,
}

/// Is `v` integral within tolerance?
fn is_int(v: f64) -> bool {
    (v - v.round()).abs() <= INT_TOL
}

/// One frontier node: a bound overlay over the root problem plus the
/// parent's re-entrant tableau.
struct Node {
    /// Seniority: creation order, assigned at push time in deterministic
    /// merge order. The tie-break everywhere.
    id: u64,
    /// Best-bound key: the parent's relaxation objective (min sense);
    /// `-inf` for the root. A child's true bound can only be ≥ this.
    key: f64,
    depth: usize,
    /// `(lower, upper)` per original variable; branching only tightens
    /// these, so together with the shared root constraints they fully
    /// describe the node's subproblem.
    bounds: Vec<(f64, f64)>,
    /// Where dual simplex re-enters from (`None` → cold solve).
    warm: Option<Branch>,
}

/// A node's warm start: its parent's optimal tableau and the branch bound
/// `x_var ≤ bound` (`le`) or `x_var ≥ bound` to append to a copy of it. The
/// copy is made when the node is expanded, not when it is queued — a node
/// pruned in the queue never pays for one, and the frontier holds one
/// tableau per branching instead of one per node.
struct Branch {
    parent: Arc<WarmLp>,
    var: usize,
    le: bool,
    bound: f64,
}

impl Node {
    /// Clone the root with this node's bounds swapped in — only needed on
    /// the cold-solve path.
    fn materialize(&self, root: &Problem) -> Problem {
        let mut p = root.clone();
        for (var, &(lo, hi)) in p.vars.iter_mut().zip(&self.bounds) {
            var.lower = lo;
            var.upper = hi;
        }
        p
    }
}

/// Max-heap adapter popping the smallest (key, id) first.
struct HeapNode(Node);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: best (smallest) bound first, ties to the senior id.
        other.0.key.total_cmp(&self.0.key).then_with(|| other.0.id.cmp(&self.0.id))
    }
}

/// A child emitted by expanding a node (id assigned later, at merge).
struct ChildSpec {
    bounds: Vec<(f64, f64)>,
    warm: Option<Branch>,
}

/// What expanding one node concluded.
enum Verdict {
    /// Infeasible subproblem or bound dominated by the (frozen) incumbent.
    Pruned,
    /// Unbounded relaxation — fatal at the root, numerical noise (skip)
    /// below it.
    Unbounded,
    /// Abort the whole solve (model error, iteration limit on a cold
    /// solve).
    Fatal(LpError),
    /// The relaxation came out integral: an incumbent candidate.
    Integral { x: Vec<f64>, obj: f64 },
    /// Fractional: children to enqueue, keyed by this node's bound.
    Branched { bound: f64, children: Vec<ChildSpec> },
}

/// One expanded node's outcome.
struct NodeOutcome {
    node_id: u64,
    depth: usize,
    pivots: usize,
    warm_hit: bool,
    verdict: Verdict,
}

/// Point feasibility against the root constraints + a node's bound
/// overlay — the overlay equivalent of `Problem::is_feasible` on a
/// materialized subproblem.
fn overlay_feasible(root: &Problem, bounds: &[(f64, f64)], x: &[f64]) -> bool {
    const TOL: f64 = 1e-6;
    if x.len() != bounds.len() {
        return false;
    }
    if x.iter().zip(bounds).any(|(&xi, &(lo, hi))| xi < lo - TOL || xi > hi + TOL) {
        return false;
    }
    root.constraints.iter().all(|c| {
        let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.0]).sum();
        match c.cmp {
            crate::problem::Cmp::Le => lhs <= c.rhs + TOL,
            crate::problem::Cmp::Ge => lhs >= c.rhs - TOL,
            crate::problem::Cmp::Eq => (lhs - c.rhs).abs() <= TOL,
        }
    })
}

/// Expand one frontier node. Pure: the outcome depends only on the node,
/// the root problem, the options, and the round-frozen `cutoff` (current
/// incumbent min-objective, `+inf` when none).
fn process_node(
    root: &Problem,
    int_vars: &[VarId],
    opts: &MilpOptions,
    mut node: Node,
    cutoff: f64,
) -> NodeOutcome {
    let to_min = |obj: f64| match root.sense() {
        Sense::Min => obj,
        Sense::Max => -obj,
    };
    let mut pivots = 0usize;
    let mut warm_hit = false;
    let mut early: Option<Verdict> = None;
    // Warm path: dual-simplex re-entry from the parent basis. Anything but
    // a verified point falls back to a cold solve below — `Infeasible`
    // included: a re-entry has reported it on nodes whose LP a cold solve
    // finds feasible, and pruning on it cut live subtrees (an `Exact` plan
    // 20 % above the optimum on a backlogged `dsp-sched` batch).
    let mut solved: Option<(Solution, Option<WarmLp>)> = None;
    if let Some(b) = node.warm.take() {
        let mut w = b.parent.child(b.var, b.le, b.bound);
        drop(b); // the last sibling out frees the parent's tableau
        match w.resolve(opts.warm_pivot_cap) {
            Ok(s) => {
                pivots += s.iterations;
                if overlay_feasible(root, &node.bounds, &s.x) {
                    warm_hit = true;
                    solved = Some((s, Some(w)));
                }
            }
            Err(_) => pivots += w.iterations(),
        }
    }
    if solved.is_none() {
        let sub = node.materialize(root);
        let cold = if opts.warm_start {
            solve_lp_warm(&sub).map(|(s, w)| (s, Some(w)))
        } else {
            solve_lp(&sub).map(|s| (s, None))
        };
        match cold {
            Ok((s, w)) => {
                pivots += s.iterations;
                solved = Some((s, w));
            }
            Err(LpError::Infeasible) => early = Some(Verdict::Pruned),
            Err(LpError::Unbounded) => early = Some(Verdict::Unbounded),
            Err(e) => early = Some(Verdict::Fatal(e)),
        }
    }
    let verdict = match (early, solved) {
        (Some(v), _) => v,
        (None, Some((relax, warm_state))) => {
            let bound = to_min(relax.objective);
            if bound >= cutoff - opts.abs_gap {
                Verdict::Pruned
            } else {
                // Most fractional integer variable.
                let branch_var =
                    int_vars.iter().copied().filter(|v| !is_int(relax.x[v.0])).max_by(|a, b| {
                        let fa = (relax.x[a.0] - relax.x[a.0].round()).abs();
                        let fb = (relax.x[b.0] - relax.x[b.0].round()).abs();
                        // total_cmp only, no tie-break: `max_by` already
                        // returns the LAST maximum, which is the behavior
                        // the recorded B&B exploration paths depend on.
                        fa.total_cmp(&fb)
                    });
                match branch_var {
                    None => {
                        // Integral point: snap integer coordinates exactly.
                        let mut x = relax.x;
                        for v in int_vars {
                            x[v.0] = x[v.0].round();
                        }
                        Verdict::Integral { x, obj: bound }
                    }
                    Some(v) => {
                        let val = relax.x[v.0];
                        let (lo, hi) = node.bounds[v.0];
                        let mut children = Vec::with_capacity(2);
                        let parent = warm_state.map(Arc::new);
                        let branch = |le, bound| {
                            let parent = Arc::clone(parent.as_ref()?);
                            Some(Branch { parent, var: v.0, le, bound })
                        };
                        // Down branch (x ≤ floor) first: it gets the senior
                        // child id, so equal-bound ties explore the often
                        // cheaper side first.
                        let dn_hi = hi.min(val.floor());
                        if lo <= dn_hi {
                            let mut b = node.bounds.clone();
                            b[v.0] = (lo, dn_hi);
                            let warm = branch(true, val.floor());
                            children.push(ChildSpec { bounds: b, warm });
                        }
                        let up_lo = lo.max(val.ceil());
                        if up_lo <= hi {
                            let mut b = node.bounds;
                            b[v.0] = (up_lo, hi);
                            let warm = branch(false, val.ceil());
                            children.push(ChildSpec { bounds: b, warm });
                        }
                        Verdict::Branched { bound, children }
                    }
                }
            }
        }
        (None, None) => unreachable!("every path sets a verdict or a solution"),
    };
    NodeOutcome { node_id: node.id, depth: node.depth, pivots, warm_hit, verdict }
}

/// Current incumbent: point, min-sense objective, and the id of the node
/// that produced it (the replacement tie-break).
struct Incumbent {
    x: Vec<f64>,
    obj: f64,
    id: u64,
}

/// The frontier engine: batch building, expansion, merging, termination.
struct Engine<'a> {
    root: &'a Problem,
    int_vars: &'a [VarId],
    opts: &'a MilpOptions,
    heap: BinaryHeap<HeapNode>,
    incumbent: Option<Incumbent>,
    next_id: u64,
    nodes: usize,
    pivots: usize,
    warm_hits: usize,
    rounds: usize,
    exhausted: bool,
}

impl<'a> Engine<'a> {
    fn new(root: &'a Problem, int_vars: &'a [VarId], opts: &'a MilpOptions) -> Self {
        let bounds = root.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let mut heap = BinaryHeap::new();
        heap.push(HeapNode(Node { id: 0, key: f64::NEG_INFINITY, depth: 0, bounds, warm: None }));
        Engine {
            root,
            int_vars,
            opts,
            heap,
            incumbent: None,
            next_id: 1,
            nodes: 0,
            pivots: 0,
            warm_hits: 0,
            rounds: 0,
            exhausted: false,
        }
    }

    /// Round-frozen prune cutoff: the incumbent's min-sense objective.
    fn cutoff(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |inc| inc.obj)
    }

    /// Pop the next batch in (bound, seniority) order. Returns the batch
    /// plus whether the node budget stopped it with work still queued.
    fn build_batch(&mut self) -> (Vec<Node>, bool) {
        let mut batch = Vec::new();
        let mut hit_budget = false;
        while batch.len() < FRONTIER_BATCH {
            let Some(top) = self.heap.peek() else { break };
            if let Some(inc) = &self.incumbent {
                if top.0.key >= inc.obj - self.opts.abs_gap {
                    // Best-bound order: the top dominates the whole heap,
                    // so everything left is pruned — the proof is done.
                    self.heap.clear();
                    break;
                }
            }
            if self.nodes >= self.opts.max_nodes {
                hit_budget = true;
                break;
            }
            let node = self.heap.pop().expect("peeked Some").0;
            self.nodes += 1;
            batch.push(node);
        }
        (batch, hit_budget)
    }

    /// Commutative incumbent replacement: strictly better objective wins,
    /// exact ties go to the senior (smaller) node id — a lattice min over
    /// (objective, id).
    fn offer_incumbent(&mut self, x: Vec<f64>, obj: f64, id: u64) {
        let better = match &self.incumbent {
            None => true,
            Some(inc) => obj < inc.obj || (obj == inc.obj && id < inc.id),
        };
        if better {
            self.incumbent = Some(Incumbent { x, obj, id });
        }
    }

    /// Fold one round's outcomes in batch (pop) order: counters, incumbent
    /// candidates, then children — ids assigned in this deterministic
    /// order, and children already dominated by the merged incumbent are
    /// dropped (their key only ever loses to a cutoff that only improves).
    fn merge(&mut self, outcomes: Vec<NodeOutcome>) -> Result<(), LpError> {
        for out in outcomes {
            self.pivots += out.pivots;
            if out.warm_hit {
                self.warm_hits += 1;
            }
            match out.verdict {
                Verdict::Pruned => {}
                Verdict::Unbounded => {
                    // Unbounded relaxation at the root means the MILP
                    // itself is unbounded (or has unbounded relaxation —
                    // we surface it); deeper it is numerical noise.
                    if out.depth == 0 {
                        return Err(LpError::Unbounded);
                    }
                }
                Verdict::Fatal(e) => return Err(e),
                Verdict::Integral { x, obj } => self.offer_incumbent(x, obj, out.node_id),
                Verdict::Branched { bound, children } => {
                    for c in children {
                        if let Some(inc) = &self.incumbent {
                            if bound >= inc.obj - self.opts.abs_gap {
                                continue;
                            }
                        }
                        let id = self.next_id;
                        self.next_id += 1;
                        self.heap.push(HeapNode(Node {
                            id,
                            key: bound,
                            depth: out.depth + 1,
                            bounds: c.bounds,
                            warm: c.warm,
                        }));
                    }
                }
            }
        }
        Ok(())
    }

    /// Drive rounds to termination: pop a batch, expand every node of it
    /// against the same cutoff, fold the outcomes in pop order.
    fn run(mut self) -> Result<MilpSolution, LpError> {
        loop {
            let (batch, hit_budget) = self.build_batch();
            if batch.is_empty() {
                self.exhausted = hit_budget;
                break;
            }
            self.rounds += 1;
            let cutoff = self.cutoff();
            let outcomes = batch
                .into_iter()
                .map(|node| process_node(self.root, self.int_vars, self.opts, node, cutoff))
                .collect();
            self.merge(outcomes)?;
        }
        match self.incumbent {
            Some(inc) => {
                let objective = match self.root.sense() {
                    Sense::Min => inc.obj,
                    Sense::Max => -inc.obj,
                };
                let status = if self.exhausted { Status::BudgetExhausted } else { Status::Optimal };
                Ok(MilpSolution {
                    x: inc.x,
                    objective,
                    status,
                    nodes: self.nodes,
                    pivots: self.pivots,
                    warm_hits: self.warm_hits,
                    rounds: self.rounds,
                    per_worker: vec![WorkerCounters { nodes: self.nodes as u64 }],
                })
            }
            None if self.exhausted => Err(LpError::NoIncumbent),
            None => Err(LpError::Infeasible),
        }
    }
}

/// Solve a mixed-integer linear program by LP-based branch-and-bound:
/// best-bound-first exploration with most-fractional branching, in batched
/// rounds on the calling thread (see the module docs for the rules that
/// define the tree).
///
/// Returns [`LpError::Infeasible`]/[`LpError::Unbounded`] when the root
/// relaxation already proves it, and [`LpError::NoIncumbent`] when the node
/// budget runs out before any integral point is found.
pub fn solve_milp(p: &Problem, opts: MilpOptions) -> Result<MilpSolution, LpError> {
    p.validate()?;
    let int_vars = p.integer_vars();
    // Pure LP: one relaxation solve is the answer.
    if int_vars.is_empty() {
        let s = solve_lp(p)?;
        return Ok(MilpSolution {
            objective: s.objective,
            pivots: s.iterations,
            x: s.x,
            status: Status::Optimal,
            nodes: 1,
            warm_hits: 0,
            rounds: 0,
            per_worker: Vec::new(),
        });
    }

    Engine::new(p, &int_vars, &opts).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Cmp;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn knapsack_small() {
        // max 5a + 4b + 3c, 2a + 3b + c ≤ 5, binaries → a=1, c=1 … check:
        // a+c uses 3, add b? 2+3+1=6 > 5. Best is a=1,c=1 (8) vs a=1,b=1
        // (9, weight 5 ✓). Optimum 9.
        let mut p = Problem::new(Sense::Max);
        let a = p.add_bin_var("a", 5.0);
        let b = p.add_bin_var("b", 4.0);
        let c = p.add_bin_var("c", 3.0);
        p.add_constraint("w", vec![(a, 2.0), (b, 3.0), (c, 1.0)], Cmp::Le, 5.0);
        let s = solve_milp(&p, MilpOptions::default()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 9.0);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 1.0);
        assert_close(s.x[2], 0.0);
        assert_eq!(s.per_worker, [WorkerCounters { nodes: s.nodes as u64 }]);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x ≤ 7, x integer → 3 (relaxation gives 3.5).
        let mut p = Problem::new(Sense::Max);
        let x = p.add_int_var("x", 0.0, f64::INFINITY, 1.0);
        p.add_constraint("c", vec![(x, 2.0)], Cmp::Le, 7.0);
        let s = solve_milp(&p, MilpOptions::default()).unwrap();
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x integer ≤ 2.5 constraint, y ≤ 1.7 continuous.
        let mut p = Problem::new(Sense::Max);
        let x = p.add_int_var("x", 0.0, f64::INFINITY, 2.0);
        let _y = p.add_var("y", 0.0, 1.7, 1.0);
        p.add_constraint("c", vec![(x, 1.0)], Cmp::Le, 2.5);
        let s = solve_milp(&p, MilpOptions::default()).unwrap();
        assert_close(s.objective, 2.0 * 2.0 + 1.7);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 ≤ x ≤ 0.6, x integer: LP feasible, MILP infeasible.
        let mut p = Problem::new(Sense::Min);
        let _x = p.add_int_var("x", 0.4, 0.6, 1.0);
        assert_eq!(solve_milp(&p, MilpOptions::default()), Err(LpError::Infeasible));
    }

    #[test]
    fn equality_milp() {
        // min x + y s.t. x + y = 5, both integers in [0,5]: objective 5,
        // many optima — check feasibility and integrality instead of point.
        let mut p = Problem::new(Sense::Min);
        let x = p.add_int_var("x", 0.0, 5.0, 1.0);
        let y = p.add_int_var("y", 0.0, 5.0, 1.0);
        p.add_constraint("e", vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
        let s = solve_milp(&p, MilpOptions::default()).unwrap();
        assert_close(s.objective, 5.0);
        assert!(is_int(s.x[0]) && is_int(s.x[1]));
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn budget_exhaustion_reports_status() {
        // A 10-item knapsack with a 1-node budget cannot finish.
        let mut p = Problem::new(Sense::Max);
        let vars: Vec<_> =
            (0..10).map(|i| p.add_bin_var(format!("v{i}"), (i + 1) as f64)).collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        p.add_constraint("w", terms, Cmp::Le, 9.0);
        match solve_milp(&p, MilpOptions { max_nodes: 1, ..MilpOptions::default() }) {
            Err(LpError::NoIncumbent) => {}
            Ok(s) => assert_eq!(s.status, Status::BudgetExhausted),
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn assignment_problem_integral() {
        // 2×2 assignment: min cost matrix [[1, 10], [10, 1]]; x_ij binary,
        // each row/col sums to 1 → diagonal, cost 2.
        let mut p = Problem::new(Sense::Min);
        let x00 = p.add_bin_var("x00", 1.0);
        let x01 = p.add_bin_var("x01", 10.0);
        let x10 = p.add_bin_var("x10", 10.0);
        let x11 = p.add_bin_var("x11", 1.0);
        p.add_constraint("r0", vec![(x00, 1.0), (x01, 1.0)], Cmp::Eq, 1.0);
        p.add_constraint("r1", vec![(x10, 1.0), (x11, 1.0)], Cmp::Eq, 1.0);
        p.add_constraint("c0", vec![(x00, 1.0), (x10, 1.0)], Cmp::Eq, 1.0);
        p.add_constraint("c1", vec![(x01, 1.0), (x11, 1.0)], Cmp::Eq, 1.0);
        let s = solve_milp(&p, MilpOptions::default()).unwrap();
        assert_close(s.objective, 2.0);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[3], 1.0);
    }

    #[test]
    fn warm_start_matches_cold_on_knapsack() {
        // The same MILP solved warm and cold must agree on objective and
        // status; warm should actually use the dual re-entry path.
        let mut p = Problem::new(Sense::Max);
        let vars: Vec<_> =
            (0..8).map(|i| p.add_bin_var(format!("v{i}"), ((i * 7) % 5 + 1) as f64)).collect();
        let terms: Vec<_> =
            vars.iter().enumerate().map(|(i, &v)| (v, ((i % 3) + 1) as f64)).collect();
        p.add_constraint("w", terms, Cmp::Le, 7.0);
        let warm = solve_milp(&p, MilpOptions::default()).unwrap();
        let cold =
            solve_milp(&p, MilpOptions { warm_start: false, ..MilpOptions::default() }).unwrap();
        assert_eq!(warm.status, Status::Optimal);
        assert_eq!(cold.status, Status::Optimal);
        assert_close(warm.objective, cold.objective);
        assert!(p.is_feasible(&warm.x, 1e-6));
        assert!(warm.warm_hits > 0, "dual re-entry never fired");
        assert_eq!(cold.warm_hits, 0);
    }

    #[test]
    fn warm_start_matches_cold_on_mixed_equality() {
        // Equality rows + continuous vars exercise artificials and the
        // Shifted/ub-row mapping under warm re-entry.
        let mut p = Problem::new(Sense::Min);
        let x = p.add_int_var("x", 0.0, 6.0, 1.0);
        let y = p.add_int_var("y", 0.0, 6.0, 2.0);
        let z = p.add_var("z", 0.0, 3.5, 0.5);
        p.add_constraint("e", vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Eq, 7.5);
        p.add_constraint("g", vec![(y, 1.0), (z, -1.0)], Cmp::Ge, 0.5);
        let warm = solve_milp(&p, MilpOptions::default()).unwrap();
        let cold =
            solve_milp(&p, MilpOptions { warm_start: false, ..MilpOptions::default() }).unwrap();
        assert_close(warm.objective, cold.objective);
        assert!(p.is_feasible(&warm.x, 1e-6));
        assert!(is_int(warm.x[0]) && is_int(warm.x[1]));
    }

    #[test]
    fn warm_start_agrees_infeasible() {
        let mut p = Problem::new(Sense::Min);
        let x = p.add_int_var("x", 0.0, 10.0, 1.0);
        let y = p.add_int_var("y", 0.0, 10.0, 1.0);
        // 2x + 2y = 7 has no integral solution.
        p.add_constraint("e", vec![(x, 2.0), (y, 2.0)], Cmp::Eq, 7.0);
        assert_eq!(solve_milp(&p, MilpOptions::default()), Err(LpError::Infeasible));
        assert_eq!(
            solve_milp(&p, MilpOptions { warm_start: false, ..MilpOptions::default() }),
            Err(LpError::Infeasible)
        );
    }

    #[test]
    fn pure_lp_shortcut() {
        let mut p = Problem::new(Sense::Max);
        let x = p.add_var("x", 0.0, 2.5, 1.0);
        let _ = x;
        let s = solve_milp(&p, MilpOptions::default()).unwrap();
        assert_close(s.objective, 2.5);
        assert_eq!(s.nodes, 1);
        assert!(s.per_worker.is_empty());
    }
}
