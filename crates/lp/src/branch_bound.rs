//! Branch-and-bound MILP driver over the simplex relaxation solver.
//!
//! The frontier is explored **best-bound first** in synchronous batched
//! rounds so node exploration can fan out over a worker pool while staying
//! *bit-for-bit deterministic*: the returned point, proven objective, and
//! every effort counter except the per-worker split are independent of the
//! thread count and of OS scheduling. The reduction rule that buys this:
//!
//! * **Pop order** — the shared priority queue orders by (LP bound,
//!   node seniority): best bound first, ties to the smaller (older) node
//!   id. A round pops a fixed-size batch in that order, independent of how
//!   many workers will chew on it.
//! * **Frozen incumbent** — workers prune against a shared atomic
//!   incumbent objective that is only written *between* rounds, so every
//!   node's prune decision depends on the round number alone, never on
//!   which worker ran it or when.
//! * **Commutative incumbent replacement** — an integral point replaces
//!   the incumbent iff its objective is strictly better, ties broken by
//!   the senior node id. That is a lattice min over (objective, id):
//!   associative and commutative, so the final incumbent is the same in
//!   any merge order (we additionally merge in deterministic batch order,
//!   belt and braces).
//!
//! Each node carries a warm start ([`Branch`]: its parent's optimal
//! [`WarmLp`] tableau, shared with its sibling, plus its own branch bound)
//! and a per-variable bound overlay instead of a cloned [`Problem`] —
//! branching only ever tightens variable bounds, so the root problem's
//! constraint rows are shared read-only across all workers and a full
//! problem clone is materialized only on the (rare) cold-solve fallback
//! path.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use crate::error::{LpError, Status};
use crate::problem::{Problem, Sense, VarId};
use crate::simplex::{solve_lp, solve_lp_warm, Solution, WarmLp};

/// Integrality tolerance: values this close to an integer count as integral.
const INT_TOL: f64 = 1e-6;

/// Nodes popped per synchronous frontier round. Fixed (never derived from
/// the worker count) so the explored tree is identical at every thread
/// count; it is also the cap on useful workers. 8 balances speculation
/// (nodes popped before this round's incumbent improvements can prune
/// them — on the pinned fig5 bench set, batches past 8 start exploring
/// nodes a fresher incumbent would have pruned) against round frequency.
const FRONTIER_BATCH: usize = 8;

/// Search budget and execution knobs for [`solve_milp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpOptions {
    /// Maximum number of branch-and-bound nodes (LP solves).
    pub max_nodes: usize,
    /// Stop once the incumbent is within this absolute gap of the best
    /// bound.
    pub abs_gap: f64,
    /// Warm-start each child node from its parent's optimal basis by dual
    /// simplex instead of cold-solving from scratch. Falls back to a cold
    /// solve per node on numerical trouble, so results are identical either
    /// way; disable only for baseline measurements.
    pub warm_start: bool,
    /// Worker threads exploring the frontier. `0` = auto (the
    /// `DSP_THREADS` env var when set, else available parallelism — see
    /// [`crate::par::resolve_workers`]); `1` runs in-line without spawning.
    /// Every value returns bit-identical results; this knob only trades
    /// wall time.
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

/// Per-worker effort split for one [`solve_milp`] call.
///
/// Which worker happened to grab which frontier node **is**
/// scheduling-dependent, so these counters are observability only — they
/// are deliberately excluded from the determinism contract that covers
/// every other field of [`MilpSolution`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Frontier nodes this worker expanded.
    pub nodes: u64,
    /// Nodes a *spawned* worker pulled off the shared round cursor. The
    /// coordinator thread (worker 0) grabs greedily and owns whatever the
    /// pool doesn't take, so every node a pool thread wins is a steal; a
    /// non-zero total is proof the pool actually ran concurrently.
    pub steals: u64,
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
    /// Synchronous frontier rounds taken (deterministic, like `nodes`).
    pub rounds: usize,
    /// Per-worker node/steal split — scheduling-dependent observability,
    /// see [`WorkerCounters`]. Empty for the pure-LP shortcut.
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

/// One expanded node's outcome, tagged with its batch slot and worker.
struct NodeOutcome {
    idx: usize,
    worker: usize,
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
/// incumbent min-objective, `+inf` when none) — never on the worker or on
/// timing. That purity is the entire determinism argument for the pool.
fn process_node(
    root: &Problem,
    int_vars: &[VarId],
    opts: &MilpOptions,
    mut node: Node,
    idx: usize,
    worker: usize,
    cutoff: f64,
) -> NodeOutcome {
    let to_min = |obj: f64| match root.sense() {
        Sense::Min => obj,
        Sense::Max => -obj,
    };
    let mut pivots = 0usize;
    let mut warm_hit = false;
    let mut early: Option<Verdict> = None;
    // Warm path: dual-simplex re-entry from the parent basis. Anything
    // suspect — iteration trouble, or a point that fails verification
    // against the node's own bounds — falls back to a cold solve below;
    // `Infeasible` is a sound verdict and prunes the node directly.
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
            Err(e) => {
                pivots += w.iterations();
                if matches!(e, LpError::Infeasible) {
                    early = Some(Verdict::Pruned);
                }
            }
        }
    }
    if early.is_none() && solved.is_none() {
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
    NodeOutcome { idx, worker, node_id: node.id, depth: node.depth, pivots, warm_hit, verdict }
}

/// Current incumbent: point, min-sense objective, and the id of the node
/// that produced it (the replacement tie-break).
struct Incumbent {
    x: Vec<f64>,
    obj: f64,
    id: u64,
}

/// Deterministic frontier engine: batch building, merging, termination.
/// Batch *execution* is delegated to a closure so the in-line and pooled
/// paths share every decision that affects the result.
struct Engine<'a> {
    root: &'a Problem,
    opts: &'a MilpOptions,
    heap: BinaryHeap<HeapNode>,
    incumbent: Option<Incumbent>,
    next_id: u64,
    nodes: usize,
    pivots: usize,
    warm_hits: usize,
    rounds: usize,
    exhausted: bool,
    per_worker: Vec<WorkerCounters>,
}

impl<'a> Engine<'a> {
    fn new(root: &'a Problem, opts: &'a MilpOptions, workers: usize) -> Self {
        let bounds = root.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let mut heap = BinaryHeap::new();
        heap.push(HeapNode(Node { id: 0, key: f64::NEG_INFINITY, depth: 0, bounds, warm: None }));
        Engine {
            root,
            opts,
            heap,
            incumbent: None,
            next_id: 1,
            nodes: 0,
            pivots: 0,
            warm_hits: 0,
            rounds: 0,
            exhausted: false,
            per_worker: vec![WorkerCounters::default(); workers],
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
    /// (objective, id), so any merge order yields the same incumbent.
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
            let pw = &mut self.per_worker[out.worker];
            pw.nodes += 1;
            if out.worker != 0 {
                pw.steals += 1;
            }
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

    /// Drive rounds to termination. `run_batch` executes one popped batch
    /// and returns outcomes **in batch order**; everything that affects
    /// the result happens here or in [`process_node`], so in-line and
    /// pooled execution cannot diverge.
    fn run<F>(mut self, mut run_batch: F) -> Result<MilpSolution, LpError>
    where
        F: FnMut(Vec<Node>, f64) -> Vec<NodeOutcome>,
    {
        loop {
            let (batch, hit_budget) = self.build_batch();
            if batch.is_empty() {
                self.exhausted = hit_budget;
                break;
            }
            self.rounds += 1;
            let cutoff = self.cutoff();
            let outcomes = run_batch(batch, cutoff);
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
                    per_worker: self.per_worker,
                })
            }
            None if self.exhausted => Err(LpError::NoIncumbent),
            None => Err(LpError::Infeasible),
        }
    }
}

/// Mutex-guarded round state for the worker pool. One generation = one
/// frontier round; every slot claim is validated against the generation it
/// was made for, so a worker that wakes up late can never touch a newer
/// round's batch (or read a newer round's incumbent and then claim an old
/// node — the claim would fail the generation check).
struct RoundState {
    /// Round generation. Bumped by the coordinator when a fresh batch is
    /// published; workers sleep until it moves.
    gen: u64,
    /// Work-sharing cursor into `slots`.
    next: usize,
    /// The published batch; claimed slots are `take()`n.
    slots: Vec<Option<Node>>,
    /// Terminal flag: set once, wakes every worker for the last time.
    done: bool,
}

/// Shared pool context. The coordinator publishes a round (slots +
/// incumbent bits + generation bump) and then races its own greedy grab
/// loop against the pool; it never *waits* for workers — on a saturated
/// machine the pool threads simply stay parked on `round_start` and the
/// coordinator answers the whole batch itself, so an idle pool costs at
/// most a few condvar notifies per round (and none at all past the warmup
/// rounds on a host with no spare cores — see [`solve_milp`]).
struct RoundShared<'a> {
    root: &'a Problem,
    int_vars: &'a [VarId],
    opts: &'a MilpOptions,
    /// Round-frozen incumbent min-objective as f64 bits (`+inf` when
    /// none). Written only while publishing a round, read by each claimant
    /// once per generation — see the ordering argument in [`solve_milp`].
    incumbent_bits: AtomicU64,
    state: Mutex<RoundState>,
    /// Workers park here between rounds; notified on publish and shutdown.
    round_start: Condvar,
}

impl RoundShared<'_> {
    /// Claim the next unclaimed slot of generation `gen`, or `None` when
    /// the round is drained (or was already replaced by a newer one).
    fn claim(&self, gen: u64) -> Option<(usize, Node)> {
        let mut st = self.state.lock().expect("round state mutex");
        if st.gen != gen || st.next >= st.slots.len() {
            return None;
        }
        let idx = st.next;
        st.next += 1;
        let node = st.slots[idx].take().expect("slot below cursor is unclaimed");
        Some((idx, node))
    }
}

fn worker_loop(shared: &RoundShared<'_>, tx: mpsc::Sender<NodeOutcome>, worker: usize) {
    let mut seen = 0u64;
    loop {
        let gen = {
            let mut st = shared.state.lock().expect("round state mutex");
            loop {
                if st.done {
                    return;
                }
                if st.gen != seen {
                    break st.gen;
                }
                st = shared.round_start.wait(st).expect("round state mutex");
            }
        };
        seen = gen;
        // Safe to read outside the lock: a successful claim below proves
        // round `gen` was still incomplete at read time, and the
        // coordinator only rewrites these bits after a round completes.
        // ordering: Acquire — pairs with the coordinator's Release store;
        // observing the generation bump under the lock happens-after that
        // store, so this load sees the round's frozen cutoff bits.
        let cutoff = f64::from_bits(shared.incumbent_bits.load(Ordering::Acquire));
        while let Some((idx, node)) = shared.claim(gen) {
            let out =
                process_node(shared.root, shared.int_vars, shared.opts, node, idx, worker, cutoff);
            // The coordinator may have aborted and stopped receiving; a
            // closed channel just means this result is no longer needed.
            let _ = tx.send(out);
        }
    }
}

/// Solve a mixed-integer linear program by LP-based branch-and-bound:
/// best-bound-first exploration with most-fractional branching, fanned out
/// over [`MilpOptions::threads`] workers in deterministic synchronous
/// rounds (see the module docs for the reduction rule — results are
/// bit-identical at every thread count).
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

    let workers = crate::par::resolve_workers(opts.threads, FRONTIER_BATCH);
    let engine = Engine::new(p, &opts, workers);
    // A pool thread that can never run while the coordinator runs is pure
    // context-switch tax, so release builds on a host without a spare core
    // keep the frontier in-line — identical results by construction, the
    // per-worker split just attributes every node to the coordinator.
    // Debug builds always drive the full pool protocol, so the test tier
    // exercises the concurrent claim path on any host.
    let pool_enabled = cfg!(debug_assertions) || crate::par::hardware_threads() > 1;
    if workers <= 1 || !pool_enabled {
        return engine.run(|batch, cutoff| {
            batch
                .into_iter()
                .enumerate()
                .map(|(idx, node)| process_node(p, &int_vars, &opts, node, idx, 0, cutoff))
                .collect()
        });
    }

    let shared = RoundShared {
        root: p,
        int_vars: &int_vars,
        opts: &opts,
        incumbent_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        state: Mutex::new(RoundState { gen: 0, next: 0, slots: Vec::new(), done: false }),
        round_start: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel::<NodeOutcome>();
    // A woken helper can only overlap with the coordinator when the host
    // has a spare hardware thread; on a single-core host a wake is pure
    // context-switch tax. Still wake the pool for the first few published
    // rounds there, so the concurrent claim path runs end-to-end on every
    // host (the equivalence tests rely on that), then let the pool sleep.
    let spare_cores = crate::par::hardware_threads().saturating_sub(1);
    const WAKE_WARMUP_ROUNDS: u64 = 2;
    std::thread::scope(|s| {
        // The coordinator doubles as worker 0; only workers − 1 pool
        // threads are spawned.
        for w in 1..workers {
            let tx = tx.clone();
            let shared = &shared;
            s.spawn(move || worker_loop(shared, tx, w));
        }
        drop(tx);
        let result = engine.run(|batch, cutoff| {
            let k = batch.len();
            // A one-node round has no parallelism to share; process it
            // in-line without waking the pool. Results are identical
            // either way: same pure process_node call, and worker-0
            // attribution matches what the greedy coordinator grab would
            // assign a solo batch anyway.
            if k == 1 {
                let node = batch.into_iter().next().expect("k == 1");
                return vec![process_node(p, &int_vars, &opts, node, 0, 0, cutoff)];
            }
            // Publish the round: incumbent bits first, then slots +
            // generation bump under the lock. Any worker that goes on to
            // claim a slot of this generation observed the bump under the
            // lock *after* this store, so it pruned against exactly this
            // round's frozen cutoff.
            // ordering: Release — pairs with the workers' Acquire load
            // above; the lock-protected generation bump that follows makes
            // the store visible before any slot of this round is claimed.
            shared.incumbent_bits.store(cutoff.to_bits(), Ordering::Release);
            let gen = {
                let mut st = shared.state.lock().expect("round state mutex");
                st.slots = batch.into_iter().map(Some).collect();
                st.next = 0;
                st.gen += 1;
                st.gen
            };
            // One helper per node beyond the coordinator's own, bounded by
            // the pool and (past warmup) by spare cores. Waking fewer
            // helpers than the pool holds never changes the result — an
            // unwoken worker is just one that never wins a claim.
            let helpers = (k - 1).min(workers - 1);
            let wake = if gen <= WAKE_WARMUP_ROUNDS { helpers } else { helpers.min(spare_cores) };
            for _ in 0..wake {
                shared.round_start.notify_one();
            }
            let mut out: Vec<Option<NodeOutcome>> = (0..k).map(|_| None).collect();
            let mut filled = 0usize;
            // Greedy coordinator grab loop — worker 0. On a machine with
            // fewer free cores than workers this thread typically keeps
            // the CPU and answers most of the batch itself; parked pool
            // threads only take slots when there is genuine spare
            // parallelism, and the coordinator never blocks waiting for a
            // worker unless that worker actually holds a claimed node.
            while let Some((idx, node)) = shared.claim(gen) {
                let o = process_node(p, &int_vars, &opts, node, idx, 0, cutoff);
                out[idx] = Some(o);
                filled += 1;
            }
            while filled < k {
                let o = rx.recv().expect("a worker answers every claimed slot");
                let idx = o.idx;
                out[idx] = Some(o);
                filled += 1;
            }
            // All k outcomes are in, so no claim of this generation is
            // outstanding — the next publish can safely replace the batch.
            out.into_iter().map(|o| o.expect("every slot answered")).collect()
        });
        {
            let mut st = shared.state.lock().expect("round state mutex");
            st.done = true;
        }
        shared.round_start.notify_all();
        result
    })
}

/// Convenience: solve and return only the point and objective, erroring on
/// budget exhaustion without incumbent.
pub fn solve_milp_simple(p: &Problem) -> Result<Solution, LpError> {
    let s = solve_milp(p, MilpOptions::default())?;
    Ok(Solution { x: s.x, objective: s.objective, iterations: s.nodes })
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
    }

    /// Pool smoke test: every thread count returns bit-identical results
    /// on a knapsack whose tree spans several rounds. (The exhaustive
    /// version is the `parallel_equiv` proptest suite.)
    #[test]
    fn thread_counts_are_bit_identical() {
        let mut p = Problem::new(Sense::Max);
        let vars: Vec<_> =
            (0..12).map(|i| p.add_bin_var(format!("v{i}"), ((i * 13) % 7 + 1) as f64)).collect();
        let terms: Vec<_> =
            vars.iter().enumerate().map(|(i, &v)| (v, ((i * 5) % 4 + 1) as f64)).collect();
        p.add_constraint("w", terms, Cmp::Le, 10.0);
        let base = solve_milp(&p, MilpOptions { threads: 1, ..MilpOptions::default() }).unwrap();
        assert!(base.rounds > 1, "instance too small to exercise rounds");
        for threads in [2usize, 4, 8] {
            let par = solve_milp(&p, MilpOptions { threads, ..MilpOptions::default() }).unwrap();
            assert_eq!(par.objective.to_bits(), base.objective.to_bits(), "threads={threads}");
            assert_eq!(par.x, base.x, "threads={threads}");
            assert_eq!(par.nodes, base.nodes, "threads={threads}");
            assert_eq!(par.pivots, base.pivots, "threads={threads}");
            assert_eq!(par.warm_hits, base.warm_hits, "threads={threads}");
            assert_eq!(par.rounds, base.rounds, "threads={threads}");
            assert_eq!(par.status, base.status, "threads={threads}");
            // The per-worker split is scheduling-dependent, but it must
            // cover exactly the explored nodes across however many workers
            // actually ran.
            assert_eq!(par.per_worker.len(), threads);
            let split: u64 = par.per_worker.iter().map(|w| w.nodes).sum();
            assert_eq!(split as usize, par.nodes, "threads={threads}");
        }
        let single: u64 = base.per_worker.iter().map(|w| w.steals).sum();
        assert_eq!(single, 0, "in-line path cannot steal");
    }
}
