//! Branch-and-bound MILP driver over the simplex relaxation solver.
//!
//! One best-bound loop on the calling thread. It pops the frontier node
//! with the smallest (key, id) — the parent's LP bound, ties to the older
//! node — and solves its relaxation. Then it does one of three things:
//!
//! * **prune** the node: its relaxation is infeasible, or its bound is
//!   within `ABS_GAP` of the incumbent;
//! * **take** its point as the new incumbent at once, when the point is
//!   integral (it beat the incumbent, or it would have been pruned);
//! * **branch** on the most fractional integer variable and push the two
//!   children, the down branch (`x ≤ floor`) first, so it gets the older
//!   id.
//!
//! The search ends proved when the best key on the frontier is within
//! `ABS_GAP` of the incumbent (best-bound order: it dominates every other
//! node), or exhausted when the node budget is spent first.
//!
//! Each node carries a warm start (`Branch`: its parent's optimal
//! `WarmLp` tableau, shared with its sibling, plus its own branch bound)
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

/// The search stops once the incumbent is within this absolute gap of the
/// best bound.
const ABS_GAP: f64 = 1e-6;

/// Search budget and solver knobs for [`solve_milp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpOptions {
    /// Maximum number of branch-and-bound nodes (LP solves).
    pub max_nodes: usize,
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
        MilpOptions { max_nodes: 10_000, warm_start: true, threads: 0, warm_pivot_cap: None }
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
    /// Equals `nodes` (0 for the pure-LP shortcut); kept while
    /// `crates/benchmark` reads `lp.bb_rounds`.
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
    /// Seniority: creation order, the root being 0. The tie-break of the
    /// pop order.
    id: u64,
    /// Best-bound key: the parent's relaxation objective (min sense);
    /// `-inf` for the root. A child's true bound can only be ≥ this.
    key: f64,
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

/// Solve a node's relaxation, adding every pivot spent to `pivots`. A
/// dual-simplex re-entry from the parent's tableau answers when its point
/// passes the overlay check. Anything else is cold-solved — a re-entry's
/// `Infeasible` included: a re-entry has reported it on nodes whose LP a
/// cold solve finds feasible, and pruning on it cut live subtrees (an
/// `Exact` plan 20 % above the optimum on a backlogged `dsp-sched` batch).
/// Returns the solution, its re-entrant tableau (when warm starts are on)
/// and whether the re-entry answered.
fn solve_node(
    root: &Problem,
    opts: &MilpOptions,
    node: &mut Node,
    pivots: &mut usize,
) -> Result<(Solution, Option<WarmLp>, bool), LpError> {
    if let Some(b) = node.warm.take() {
        let mut w = b.parent.child(b.var, b.le, b.bound);
        drop(b); // the last sibling out frees the parent's tableau
        match w.resolve(opts.warm_pivot_cap) {
            Ok(s) => {
                *pivots += s.iterations;
                if overlay_feasible(root, &node.bounds, &s.x) {
                    return Ok((s, Some(w), true));
                }
            }
            Err(_) => *pivots += w.iterations(),
        }
    }
    let sub = node.materialize(root);
    let (s, w) = if opts.warm_start {
        let (s, w) = solve_lp_warm(&sub)?;
        (s, Some(w))
    } else {
        (solve_lp(&sub)?, None)
    };
    *pivots += s.iterations;
    Ok((s, w, false))
}

/// The integer variable farthest from an integer at `x`; `None` when the
/// point is integral.
fn most_fractional(int_vars: &[VarId], x: &[f64]) -> Option<VarId> {
    let frac = |v: &VarId| (x[v.0] - x[v.0].round()).abs();
    // total_cmp only, no tie-break: `max_by` already returns the LAST
    // maximum, which is the behavior the recorded B&B exploration paths
    // depend on.
    int_vars.iter().copied().filter(|v| !is_int(x[v.0])).max_by(|a, b| frac(a).total_cmp(&frac(b)))
}

/// Solve a mixed-integer linear program by LP-based branch-and-bound:
/// best-bound-first exploration with most-fractional branching on the
/// calling thread (see the module docs for the loop).
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

    // Min-sense objective; its own inverse.
    let to_min = |obj: f64| match p.sense() {
        Sense::Min => obj,
        Sense::Max => -obj,
    };
    let bounds = p.vars.iter().map(|v| (v.lower, v.upper)).collect();
    let root = Node { id: 0, key: f64::NEG_INFINITY, bounds, warm: None };
    let mut heap = BinaryHeap::from([HeapNode(root)]);
    let mut next_id = 1;
    // The incumbent point and its min-sense objective.
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    let (mut nodes, mut pivots, mut warm_hits) = (0, 0, 0);
    let mut exhausted = false;
    while let Some(top) = heap.peek() {
        let cutoff = incumbent.as_ref().map_or(f64::INFINITY, |(_, obj)| *obj);
        if top.0.key >= cutoff - ABS_GAP {
            break; // proved: the top dominates the whole heap
        }
        if nodes >= opts.max_nodes {
            exhausted = true;
            break;
        }
        let mut node = heap.pop().expect("peeked Some").0;
        nodes += 1;
        let (relax, warm, warm_hit) = match solve_node(p, &opts, &mut node, &mut pivots) {
            Ok(solved) => solved,
            // An infeasible subproblem is pruned. An unbounded relaxation
            // is surfaced at the root; deeper it is numerical noise.
            Err(LpError::Infeasible) => continue,
            Err(LpError::Unbounded) if node.id != 0 => continue,
            Err(e) => return Err(e),
        };
        warm_hits += usize::from(warm_hit);
        let bound = to_min(relax.objective);
        if bound >= cutoff - ABS_GAP {
            continue;
        }
        let Some(v) = most_fractional(&int_vars, &relax.x) else {
            // Integral point: snap integer coordinates exactly.
            let mut x = relax.x;
            for v in &int_vars {
                x[v.0] = x[v.0].round();
            }
            incumbent = Some((x, bound));
            continue;
        };
        let val = relax.x[v.0];
        let (lo, hi) = node.bounds[v.0];
        let parent = warm.map(Arc::new);
        let branch = |le, bound| {
            let parent = Arc::clone(parent.as_ref()?);
            Some(Branch { parent, var: v.0, le, bound })
        };
        let down = (lo, hi.min(val.floor()), branch(true, val.floor()));
        let up = (lo.max(val.ceil()), hi, branch(false, val.ceil()));
        for (lo, hi, warm) in [down, up] {
            if lo <= hi {
                let mut bounds = node.bounds.clone();
                bounds[v.0] = (lo, hi);
                heap.push(HeapNode(Node { id: next_id, key: bound, bounds, warm }));
                next_id += 1;
            }
        }
    }
    let Some((x, obj)) = incumbent else {
        return Err(if exhausted { LpError::NoIncumbent } else { LpError::Infeasible });
    };
    Ok(MilpSolution {
        x,
        objective: to_min(obj),
        status: if exhausted { Status::BudgetExhausted } else { Status::Optimal },
        nodes,
        pivots,
        warm_hits,
        rounds: nodes,
        per_worker: vec![WorkerCounters { nodes: nodes as u64 }],
    })
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
