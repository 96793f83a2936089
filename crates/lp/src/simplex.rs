//! Dense two-phase primal simplex with Bland's anti-cycling rule, geared
//! for correctness and the modest instance sizes the DSP formulation
//! produces (hundreds of rows), not for sparse industrial LPs.
//!
//! **Layout.** One row-major `Vec<f64>` of `(m + 1) × stride` cells: the
//! objective row, then the `m` constraint rows, the rhs last in each. A pivot
//! is one multiply and one subtract per cell over disjoint row slices, which
//! release builds vectorise (debug builds run the same loops scalar; both
//! round every cell identically).
//!
//! **Artificial columns are dropped after phase 1**, which is bit-exact:
//! every cell update reads only its own column of the pivot row, so deleting
//! a column changes no surviving cell; the columns dropped are the ones
//! phase 2 masks from entering, and nothing else reads them (point
//! extraction, both ratio tests and the child derivation look at allowed
//! columns, the rhs and the basis only). An artificial still basic after the
//! drive-out pass — a redundant equality — keeps its column; its row is
//! inert from then on (no structural entry above `TOL`, rhs ≥ 0), so it is
//! never a pivot row and never updated. Basis ids keep their relative order
//! (structural < kept artificials < branch slacks in creation order), so no
//! Bland tie-break moves, and the iteration budgets are still computed from
//! the logical width, dropped columns included.
//!
//! **The dual ratio test pivots only on entries below −1e-7** (`PIVOT_TOL`),
//! not on anything past the 1e-9 elimination `TOL`. Dividing by a ~1e-9
//! entry amplifies the tableau's drift by 1e9; on big-M rows that was dual
//! re-entries running to their iteration limit (an 8-task batch of
//! `dsp-sched`'s tests, binary `x`: 1 088 243 pivots; with the tolerance
//! 912). A leaving row whose only negative entries are below the tolerance
//! is not proof of infeasibility, so it fails as `IterationLimit` and
//! branch-and-bound cold-solves the node. There is no switch to Bland's
//! leaving row after k degenerate pivots: the runaway was numerical, not
//! combinatorial, and that switch (k = 8) did not end it — 1 204 758 pivots.
//!
//! **Deliberately not done**, because each changes the vertex the root LP
//! lands on and with it which of several equal-makespan schedules
//! branch-and-bound returns: no crash basis, no bounded-variable ratio test
//! (finite upper bounds stay explicit rows), no `mul_add`. The pivot path is
//! pinned by `tests/path_pin.rs`.

use std::ops::Range;
use std::sync::Arc;

use crate::error::LpError;
use crate::problem::{Cmp, Problem, Sense};

const TOL: f64 = 1e-9;

/// Smallest |entry| the dual ratio test pivots on (see the module docs).
const PIVOT_TOL: f64 = 1e-7;

/// An LP solution: the point, its objective value, and the iteration count.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal point in the original variable space.
    pub x: Vec<f64>,
    /// Objective value at `x`, in the problem's own sense.
    pub objective: f64,
    /// Simplex pivots performed (both phases).
    pub iterations: usize,
}

/// How each original variable maps into the non-negative standard-form
/// space.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = x'_col + shift`, `x' ≥ 0`.
    Shifted { col: usize, shift: f64 },
    /// `x = ub − x'_col`, `x' ≥ 0` (lower unbounded, upper finite).
    Flipped { col: usize, ub: f64 },
    /// `x = x'_pos − x'_neg` (free variable).
    Split { pos: usize, neg: usize },
}

struct Standard {
    /// Sparse rows `(column, coefficient)` over standard-form columns,
    /// consolidated and sorted by column. The DSP formulation's
    /// disjunctive-ordering blocks touch a handful of columns per row, so
    /// dense rows would cost O(m·n) to build where O(nnz) suffices.
    rows: Vec<Vec<(usize, f64)>>,
    rhs: Vec<f64>,
    /// Objective over standard-form columns (always *minimize*).
    cost: Vec<f64>,
    /// Constant folded out of the objective by the variable shifts.
    cost_offset: f64,
    /// Map from original variables to standard columns.
    map: Vec<VarMap>,
}

/// Convert a [`Problem`] to standard form `min c'x, Ax {≤,=,≥} b, x ≥ 0`
/// (slacks are added later by the tableau builder).
fn standardize(p: &Problem) -> Standard {
    let mut map = Vec::with_capacity(p.vars.len());
    let mut n = 0usize;
    // Extra rows for finite upper bounds of shifted vars.
    let mut ub_rows: Vec<(usize, f64)> = Vec::new();
    for v in &p.vars {
        let lower_finite = v.lower.is_finite();
        let upper_finite = v.upper.is_finite();
        let m = if lower_finite {
            let col = n;
            n += 1;
            if upper_finite {
                ub_rows.push((col, v.upper - v.lower));
            }
            VarMap::Shifted { col, shift: v.lower }
        } else if upper_finite {
            let col = n;
            n += 1;
            VarMap::Flipped { col, ub: v.upper }
        } else {
            let pos = n;
            let neg = n + 1;
            n += 2;
            VarMap::Split { pos, neg }
        };
        map.push(m);
    }

    let sign = match p.sense {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };
    let mut cost = vec![0.0; n];
    let mut cost_offset = 0.0;
    for (v, m) in p.vars.iter().zip(&map) {
        let c = sign * v.obj;
        match *m {
            VarMap::Shifted { col, shift } => {
                cost[col] += c;
                cost_offset += c * shift;
            }
            VarMap::Flipped { col, ub } => {
                cost[col] -= c;
                cost_offset += c * ub;
            }
            VarMap::Split { pos, neg } => {
                cost[pos] += c;
                cost[neg] -= c;
            }
        }
    }

    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut rhs = Vec::new();
    let mut cmps = Vec::new();
    // Dense scratch reused across constraints: scatter the terms, then
    // gather the touched columns into a consolidated sorted sparse row.
    let mut scratch = vec![0.0; n];
    let mut touched: Vec<usize> = Vec::new();
    for cons in &p.constraints {
        let mut b = cons.rhs;
        for &(vid, a) in &cons.terms {
            match map[vid.0] {
                VarMap::Shifted { col, shift } => {
                    scratch[col] += a;
                    touched.push(col);
                    b -= a * shift;
                }
                VarMap::Flipped { col, ub } => {
                    scratch[col] -= a;
                    touched.push(col);
                    b -= a * ub;
                }
                VarMap::Split { pos, neg } => {
                    scratch[pos] += a;
                    scratch[neg] -= a;
                    touched.push(pos);
                    touched.push(neg);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let row: Vec<(usize, f64)> =
            touched.iter().filter(|&&c| scratch[c] != 0.0).map(|&c| (c, scratch[c])).collect();
        for &c in &touched {
            scratch[c] = 0.0;
        }
        touched.clear();
        rows.push(row);
        rhs.push(b);
        cmps.push(cons.cmp);
    }
    for (col, ub) in ub_rows {
        rows.push(vec![(col, 1.0)]);
        rhs.push(ub);
        cmps.push(Cmp::Le);
    }

    // Attach slack/surplus columns; normalize rhs ≥ 0 first (negating a row
    // flips its comparison).
    let m_rows = rows.len();
    let mut slack_cols = 0usize;
    for i in 0..m_rows {
        if rhs[i] < 0.0 {
            rhs[i] = -rhs[i];
            for (_, a) in rows[i].iter_mut() {
                *a = -*a;
            }
            cmps[i] = match cmps[i] {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        if !matches!(cmps[i], Cmp::Eq) {
            slack_cols += 1;
        }
    }
    let total = n + slack_cols;
    let mut next_slack = n;
    for i in 0..m_rows {
        match cmps[i] {
            Cmp::Le => {
                rows[i].push((next_slack, 1.0));
                next_slack += 1;
            }
            Cmp::Ge => {
                rows[i].push((next_slack, -1.0));
                next_slack += 1;
            }
            Cmp::Eq => {}
        }
    }
    cost.resize(total, 0.0);

    Standard { rows, rhs, cost, cost_offset, map }
}

/// Full-tableau simplex state.
struct Tableau {
    /// Row-major `(m + 1) × stride`: row 0 is the objective row (reduced
    /// costs, last entry `-objective`), rows `1..=m` are the constraints;
    /// the last column of every row is the rhs.
    a: Vec<f64>,
    stride: usize,
    /// Basic column of each constraint row (`basis[r]` goes with buffer row
    /// `r + 1`).
    basis: Vec<usize>,
    iterations: usize,
}

impl Tableau {
    fn z(&self) -> &[f64] {
        &self.a[..self.stride]
    }

    /// The constraint rows, in `basis` order.
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.a[self.stride..].chunks_exact(self.stride)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.stride;
        let (above, rest) = self.a.split_at_mut((row + 1) * w);
        let (prow, below) = rest.split_at_mut(w);
        debug_assert!(prow[col].abs() > TOL);
        let inv = 1.0 / prow[col];
        for v in prow.iter_mut() {
            *v *= inv;
        }
        // Every other row, the objective row included: one multiply and one
        // subtract per cell, over disjoint slices so the loop vectorises.
        for r in above.chunks_exact_mut(w).chain(below.chunks_exact_mut(w)) {
            let factor = r[col];
            if factor.abs() > TOL {
                for (d, &v) in r.iter_mut().zip(prow.iter()) {
                    *d -= factor * v;
                }
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Run simplex to optimality on the current objective row. Columns in
    /// `masked` may not enter.
    fn optimize(&mut self, masked: &Range<usize>, max_iters: usize) -> Result<(), LpError> {
        let n = self.stride - 1;
        loop {
            if self.iterations > max_iters {
                return Err(LpError::IterationLimit);
            }
            // Bland's rule: smallest-index column with negative reduced
            // cost.
            let z = self.z();
            let entering = (0..masked.start).chain(masked.end..n).find(|&j| z[j] < -TOL);
            let Some(col) = entering else { return Ok(()) };
            // Ratio test; Bland tie-break on the smallest basis variable.
            let mut best: Option<(usize, f64)> = None;
            for (r, row) in self.rows().enumerate() {
                let a = row[col];
                if a > TOL {
                    let ratio = row[n] / a;
                    match best {
                        None => best = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - TOL
                                || ((ratio - bratio).abs() <= TOL && self.basis[r] < self.basis[br])
                            {
                                best = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            match best {
                Some((row, _)) => self.pivot(row, col),
                None => return Err(LpError::Unbounded),
            }
        }
    }

    /// Dual simplex: restore primal feasibility (rhs ≥ 0) while keeping the
    /// reduced costs non-negative. Entered after appending a violated
    /// constraint row to an optimal tableau (branch-and-bound warm starts).
    fn dual_optimize(&mut self, masked: &Range<usize>, max_iters: usize) -> Result<(), LpError> {
        let n = self.stride - 1;
        loop {
            if self.iterations > max_iters {
                return Err(LpError::IterationLimit);
            }
            // Leaving row: most negative rhs (tie: smallest basis index).
            let mut leave: Option<(usize, f64)> = None;
            for (r, row) in self.rows().enumerate() {
                let b = row[n];
                if b < -TOL {
                    let better = match leave {
                        None => true,
                        Some((lr, lb)) => {
                            b < lb - TOL
                                || ((b - lb).abs() <= TOL && self.basis[r] < self.basis[lr])
                        }
                    };
                    if better {
                        leave = Some((r, b));
                    }
                }
            }
            let Some((row, _)) = leave else { return Ok(()) };
            // Dual ratio test: minimize z[j]/−a[row][j] over the entries
            // below −PIVOT_TOL; ties go to the smallest column index
            // (Bland-style anti-cycling).
            let (z, leaving) = (self.z(), &self.a[(row + 1) * self.stride..][..n]);
            let mut enter: Option<(usize, f64)> = None;
            let mut tiny = false;
            for j in (0..masked.start).chain(masked.end..n) {
                let a = leaving[j];
                if a < -PIVOT_TOL {
                    let ratio = z[j] / -a;
                    let better = match enter {
                        None => true,
                        Some((_, best)) => ratio < best - TOL,
                    };
                    if better {
                        enter = Some((j, ratio));
                    }
                } else if a < -TOL {
                    tiny = true;
                }
            }
            match enter {
                Some((col, _)) => self.pivot(row, col),
                // Only entries too small to pivot on: numerical trouble,
                // not a proof — the caller cold-solves.
                None if tiny => return Err(LpError::IterationLimit),
                // No negative entry: the row reads Σ(≥0)·x = negative.
                None => return Err(LpError::Infeasible),
            }
        }
    }

    /// Re-stride without the artificial columns (`n_cols..stride − 1`) that
    /// phase 1 is done with. One that is still basic — the drive-out pass
    /// found no structural pivot in its row, a redundant equality — stays,
    /// so basis ids keep their order: structural < kept artificials < the
    /// branch slacks children append. Returns how many were kept.
    fn drop_artificials(&mut self, n_cols: usize) -> usize {
        let w = self.stride;
        let mut keep: Vec<usize> = self.basis.iter().copied().filter(|&b| b >= n_cols).collect();
        keep.sort_unstable();
        keep.push(w - 1); // the rhs
        let mut dst = 0;
        for src in (0..self.a.len()).step_by(w) {
            // Never ahead of the cells still to be read: dst ≤ src.
            self.a.copy_within(src..src + n_cols, dst);
            dst += n_cols;
            for &j in &keep {
                self.a[dst] = self.a[src + j];
                dst += 1;
            }
        }
        self.a.truncate(dst);
        self.stride = n_cols + keep.len();
        for b in self.basis.iter_mut().filter(|b| **b >= n_cols) {
            *b = n_cols + keep.binary_search(b).expect("basic artificials are kept");
        }
        debug_assert!(self.basis_is_unit(), "compaction moved a basic column");
        keep.len() - 1
    }

    /// Is every basic column a unit column with its one in its own row? (To
    /// `1e-6`: a pivot leaves residues up to `TOL` in the rows it skips —
    /// the test suites reach 4e-10 — while a misplaced column is off by a
    /// whole coefficient.)
    fn basis_is_unit(&self) -> bool {
        self.basis.iter().enumerate().all(|(r, &b)| {
            self.rows().enumerate().all(|(i, row)| {
                let unit = if i == r { 1.0 } else { 0.0 };
                (row[b] - unit).abs() <= 1e-6
            })
        })
    }
}

/// Solve a linear program (integer markers are ignored — this is the pure
/// relaxation solver). Returns the optimal [`Solution`] or an error for
/// infeasible/unbounded models.
pub fn solve_lp(p: &Problem) -> Result<Solution, LpError> {
    p.validate()?;
    if p.num_vars() == 0 {
        // Feasible iff every constraint holds with all-empty lhs.
        for c in &p.constraints {
            let ok = match c.cmp {
                Cmp::Le => 0.0 <= c.rhs + TOL,
                Cmp::Ge => 0.0 >= c.rhs - TOL,
                Cmp::Eq => c.rhs.abs() <= TOL,
            };
            if !ok {
                return Err(LpError::Infeasible);
            }
        }
        return Ok(Solution { x: vec![], objective: 0.0, iterations: 0 });
    }

    Ok(solve_std(p)?.extract())
}

/// What a solved tableau needs besides its numbers. Fixed from the end of
/// phase 1 on, so a whole B&B subtree shares one copy.
struct Shape {
    /// Columns that may never enter the basis: the artificials
    /// [`Tableau::drop_artificials`] kept. They start where the
    /// standard-form columns (structural + standardize slacks) end, and
    /// only those map back to original variables.
    masked: Range<usize>,
    /// Artificial columns dropped after phase 1. The iteration budgets are
    /// sized from the tableau's logical width, which still counts them.
    dropped: usize,
    map: Vec<VarMap>,
    cost_offset: f64,
    sense: Sense,
}

/// Run two-phase simplex to optimality and return the solved tableau.
fn solve_std(p: &Problem) -> Result<WarmLp, LpError> {
    let std_form = standardize(p);
    let m = std_form.rows.len();
    let n_cols = std_form.cost.len();
    let n_total = n_cols + m; // one artificial per row

    // Build the phase-1 tableau [A | I | b] under its objective row:
    // minimize the artificial sum, whose reduced costs are minus the column
    // sums (rows subtracted in order) and zero on the basic artificials.
    let w = n_total + 1;
    let mut a = vec![0.0; (m + 1) * w];
    let (z, rows) = a.split_at_mut(w);
    for (i, (row, sparse)) in rows.chunks_exact_mut(w).zip(&std_form.rows).enumerate() {
        for &(c, v) in sparse {
            row[c] = v;
        }
        row[n_cols + i] = 1.0;
        row[n_total] = std_form.rhs[i];
        for (z, v) in z.iter_mut().zip(row.iter()) {
            *z -= v;
        }
    }
    z[n_cols..n_total].fill(0.0);

    let basis: Vec<usize> = (n_cols..n_total).collect();
    let mut tab = Tableau { a, stride: w, basis, iterations: 0 };
    let max_iters = 20_000 + 200 * (m + n_total);
    let nothing_masked = n_total..n_total;
    match tab.optimize(&nothing_masked, max_iters) {
        Ok(()) => {}
        Err(LpError::Unbounded) => {
            // Phase 1 is bounded below by zero; unbounded here means a
            // numerical breakdown.
            return Err(LpError::IterationLimit);
        }
        Err(e) => return Err(e),
    }
    let phase1_obj = -tab.z()[n_total];
    if phase1_obj > 1e-6 {
        return Err(LpError::Infeasible);
    }

    // Drive any artificial variables still in the basis out (degenerate
    // zero rows), pivoting on any structural column with a nonzero entry.
    for r in 0..m {
        if tab.basis[r] >= n_cols {
            let row = &tab.a[(r + 1) * w..][..n_cols];
            if let Some(col) = row.iter().position(|v| v.abs() > TOL) {
                tab.pivot(r, col);
            }
            // If no structural pivot exists the row is redundant; leaving
            // the zero-valued artificial basic is harmless.
        }
    }
    let kept = tab.drop_artificials(n_cols);

    // Phase 2: original cost over structural columns only.
    let (z, rows) = tab.a.split_at_mut(tab.stride);
    z.fill(0.0);
    z[..n_cols].copy_from_slice(&std_form.cost);
    for (row, &b) in rows.chunks_exact(z.len()).zip(&tab.basis) {
        let cb = if b < n_cols { std_form.cost[b] } else { 0.0 };
        if cb.abs() > TOL {
            for (z, v) in z.iter_mut().zip(row) {
                *z -= cb * v;
            }
        }
    }
    // Basic columns must show zero reduced cost exactly.
    for &b in &tab.basis {
        z[b] = 0.0;
    }

    let masked = n_cols..n_cols + kept; // artificials may never re-enter
    tab.optimize(&masked, max_iters)?;

    let shape = Shape {
        masked,
        dropped: m - kept,
        map: std_form.map,
        cost_offset: std_form.cost_offset,
        sense: p.sense,
    };
    Ok(WarmLp { tab, shape: Arc::new(shape) })
}

/// Solve an LP and additionally hand back the re-entrant [`WarmLp`] state,
/// so branch-and-bound can derive child nodes from the optimal basis.
pub(crate) fn solve_lp_warm(p: &Problem) -> Result<(Solution, WarmLp), LpError> {
    p.validate()?;
    let warm = solve_std(p)?;
    Ok((warm.extract(), warm))
}

/// A solved (optimal) standard-form tableau plus the mapping data needed to
/// extract a [`Solution`] from it — and re-entrant: a branch-and-bound child
/// (one extra branching bound) is derived from its parent's and re-solved by
/// dual simplex instead of from scratch.
pub(crate) struct WarmLp {
    tab: Tableau,
    shape: Arc<Shape>,
}

impl WarmLp {
    /// Pivots performed on this tableau since the last (re-)solve began.
    pub(crate) fn iterations(&self) -> usize {
        self.tab.iterations
    }

    /// Read the optimal point and objective out of the tableau.
    fn extract(&self) -> Solution {
        let (tab, shape) = (&self.tab, &*self.shape);
        let n = tab.stride - 1;
        // Extract the standard-form point.
        let mut xs = vec![0.0; shape.masked.start];
        for (row, &b) in tab.rows().zip(&tab.basis) {
            if b < xs.len() {
                xs[b] = row[n];
            }
        }
        // Map back to the original variables.
        let x = shape
            .map
            .iter()
            .map(|vm| match *vm {
                VarMap::Shifted { col, shift } => xs[col] + shift,
                VarMap::Flipped { col, ub } => ub - xs[col],
                VarMap::Split { pos, neg } => xs[pos] - xs[neg],
            })
            .collect();
        let min_obj = -tab.z()[n] + shape.cost_offset;
        let objective = match shape.sense {
            Sense::Min => min_obj,
            Sense::Max => -min_obj,
        };
        Solution { x, objective, iterations: tab.iterations }
    }

    /// Derive a child state: copy this optimal tableau — one pass into one
    /// new buffer — and append the branch constraint `x_v ≤ bound` (`le`) or
    /// `x_v ≥ bound` over the *original* variable `v`. The new row gets its
    /// own slack column which enters the basis, keeping the tableau dual
    /// feasible; call [`WarmLp::resolve`] to restore primal feasibility.
    pub(crate) fn child(&self, v: usize, le: bool, bound: f64) -> WarmLp {
        let src = &self.tab;
        // Widen every row by the new slack column (kept just before rhs).
        let w = src.stride + 1;
        let (new_col, rhs) = (w - 2, w - 1);
        let mut a = Vec::with_capacity(src.a.len() + src.basis.len() + 1 + w);
        for row in src.a.chunks_exact(src.stride) {
            a.extend_from_slice(&row[..new_col]);
            a.extend_from_slice(&[0.0, row[new_col]]);
        }
        let n_old = a.len();
        a.resize(n_old + w, 0.0);
        let (old, row) = a.split_at_mut(n_old);

        // The branch bound over standard-form columns, normalized to ≤.
        let mut terms: [(usize, f64); 2] = [(0, 0.0); 2];
        let mut n_terms = 1;
        let mut b;
        let mut le = le;
        match self.shape.map[v] {
            VarMap::Shifted { col, shift } => {
                terms[0] = (col, 1.0);
                b = bound - shift;
            }
            VarMap::Flipped { col, ub } => {
                // x = ub − x' {≤,≥} bound  ⇔  x' {≥,≤} ub − bound.
                terms[0] = (col, 1.0);
                b = ub - bound;
                le = !le;
            }
            VarMap::Split { pos, neg } => {
                terms[0] = (pos, 1.0);
                terms[1] = (neg, -1.0);
                n_terms = 2;
                b = bound;
            }
        }
        if !le {
            for (_, a) in terms.iter_mut() {
                *a = -*a;
            }
            b = -b;
        }
        for &(c, a) in &terms[..n_terms] {
            row[c] = a;
        }
        row[new_col] = 1.0;
        row[rhs] = b;
        // Express the new row in the current basis: eliminate every basic
        // column against the row where it is basic. (Old rows are zero in
        // the new slack column, so its coefficient survives untouched.)
        for (r, &basic) in old[w..].chunks_exact(w).zip(&src.basis) {
            let f = row[basic];
            if f.abs() > TOL {
                for (dst, srcv) in row.iter_mut().zip(r) {
                    *dst -= f * srcv;
                }
            }
        }
        let basis = src.basis.iter().copied().chain([new_col]).collect();
        let tab = Tableau { a, stride: w, basis, iterations: 0 };
        WarmLp { tab, shape: Arc::clone(&self.shape) }
    }

    /// Re-solve after [`WarmLp::child`] appended a branch row: dual simplex
    /// drives the violated rhs out, then a primal cleanup pass clears any
    /// residual negative reduced cost. `Infeasible` is definitive; any
    /// other error — a leaving row with only sub-tolerance entries among
    /// them — means "fall back to a cold solve". `pivot_cap` lowers
    /// the iteration budget below the solver's own limit — branch-and-bound
    /// threads its `warm_pivot_cap` fault-injection knob through here so
    /// tests can force the cold-solve fallback deterministically.
    pub(crate) fn resolve(&mut self, pivot_cap: Option<usize>) -> Result<Solution, LpError> {
        let (tab, shape) = (&mut self.tab, &*self.shape);
        tab.iterations = 0;
        let auto = 20_000 + 200 * (tab.basis.len() + tab.stride - 1 + shape.dropped);
        let max_iters = pivot_cap.map_or(auto, |cap| cap.min(auto));
        tab.dual_optimize(&shape.masked, max_iters)?;
        tab.optimize(&shape.masked, max_iters).map_err(|e| match e {
            // A child of a bounded parent cannot be unbounded; treat it as
            // a numerical breakdown so the caller cold-solves.
            LpError::Unbounded => LpError::IterationLimit,
            e => e,
        })?;
        Ok(self.extract())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z = 36.
        let mut p = Problem::new(Sense::Max);
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
        p.add_constraint("c1", vec![(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint("c2", vec![(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn min_with_ge_needs_phase1() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → (10−y chooses cheap x) …
        // optimum at y = 0, x = 10: z = 20? Check: coefficient of x is
        // smaller, so push everything onto x. x ≥ 2 non-binding.
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
        p.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        p.add_constraint("xmin", vec![(x, 1.0)], Cmp::Ge, 2.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 20.0);
        assert_close(s.x[0], 10.0);
        assert_close(s.x[1], 0.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 8, x − y = 2 → x = 4, y = 2, z = 6.
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint("e1", vec![(x, 1.0), (y, 2.0)], Cmp::Eq, 8.0);
        p.add_constraint("e2", vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.x[0], 4.0);
        assert_close(s.x[1], 2.0);
        assert_close(s.objective, 6.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        p.add_constraint("c", vec![(x, 1.0)], Cmp::Ge, 5.0);
        assert_eq!(solve_lp(&p), Err(LpError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Max);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        p.add_constraint("c", vec![(x, -1.0)], Cmp::Le, 1.0);
        assert_eq!(solve_lp(&p), Err(LpError::Unbounded));
    }

    #[test]
    fn variable_bounds_respected() {
        // max x + y with 1 ≤ x ≤ 3, 0 ≤ y ≤ 2, x + y ≤ 4 → (3, 1) or (2,2);
        // objective 4 either way.
        let mut p = Problem::new(Sense::Max);
        let x = p.add_var("x", 1.0, 3.0, 1.0);
        let y = p.add_var("y", 0.0, 2.0, 1.0);
        p.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 4.0);
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn nonzero_lower_bounds_shift_objective() {
        // min x with x ≥ 5 (bound only, no constraint rows).
        let mut p = Problem::new(Sense::Min);
        let _x = p.add_var("x", 5.0, f64::INFINITY, 1.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 5.0);
        assert_close(s.x[0], 5.0);
    }

    #[test]
    fn free_variable_split() {
        // min |style| objective: min y s.t. y ≥ x − 3, y ≥ 3 − x, x free →
        // optimum y = 0 at x = 3.
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint("a", vec![(y, 1.0), (x, -1.0)], Cmp::Ge, -3.0);
        p.add_constraint("b", vec![(y, 1.0), (x, 1.0)], Cmp::Ge, 3.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn upper_bounded_only_variable() {
        // max x with x ≤ 7 and lower unbounded → flipped var path.
        let mut p = Problem::new(Sense::Max);
        let _x = p.add_var("x", f64::NEG_INFINITY, 7.0, 1.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 7.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints meeting at the optimum.
        let mut p = Problem::new(Sense::Max);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        p.add_constraint("c2", vec![(x, 1.0)], Cmp::Le, 1.0);
        p.add_constraint("c3", vec![(y, 1.0)], Cmp::Le, 1.0);
        p.add_constraint("c4", vec![(x, 2.0), (y, 1.0)], Cmp::Le, 2.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classic degenerate LP makes naive Dantzig pivoting cycle
        // forever; Bland's rule must terminate at the optimum z = −0.05.
        // min −0.75x4 + 150x5 − 0.02x6 + 6x7
        // s.t. 0.25x4 − 60x5 − 0.04x6 + 9x7 ≤ 0
        //      0.5x4 − 90x5 − 0.02x6 + 3x7 ≤ 0
        //      x6 ≤ 1
        let mut p = Problem::new(Sense::Min);
        let x4 = p.add_var("x4", 0.0, f64::INFINITY, -0.75);
        let x5 = p.add_var("x5", 0.0, f64::INFINITY, 150.0);
        let x6 = p.add_var("x6", 0.0, f64::INFINITY, -0.02);
        let x7 = p.add_var("x7", 0.0, f64::INFINITY, 6.0);
        p.add_constraint("r1", vec![(x4, 0.25), (x5, -60.0), (x6, -0.04), (x7, 9.0)], Cmp::Le, 0.0);
        p.add_constraint("r2", vec![(x4, 0.5), (x5, -90.0), (x6, -0.02), (x7, 3.0)], Cmp::Le, 0.0);
        p.add_constraint("r3", vec![(x6, 1.0)], Cmp::Le, 1.0);
        let s = solve_lp(&p).expect("Bland's rule terminates");
        assert_close(s.objective, -0.05);
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(Sense::Min);
        let s = solve_lp(&p).unwrap();
        assert!(s.x.is_empty());
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn solution_is_always_feasible() {
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, 10.0, 1.0);
        let y = p.add_var("y", 0.0, 10.0, 2.0);
        let z = p.add_var("z", 0.0, 10.0, 3.0);
        p.add_constraint("c1", vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Ge, 6.0);
        p.add_constraint("c2", vec![(x, 1.0), (y, -1.0)], Cmp::Le, 2.0);
        p.add_constraint("c3", vec![(z, 1.0)], Cmp::Ge, 1.0);
        let s = solve_lp(&p).unwrap();
        assert!(p.is_feasible(&s.x, 1e-6), "{:?}", s.x);
    }
}
