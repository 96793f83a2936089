//! A from-scratch linear-programming and mixed-integer-programming solver.
//!
//! The paper solves its Section III scheduling formulation with CPLEX \[31\].
//! CPLEX is proprietary, so this crate supplies the substitute: a dense
//! **two-phase primal simplex** ([`simplex`]) under a **branch-and-bound**
//! MILP driver ([`branch_bound`]). The API is a small problem builder
//! ([`problem::Problem`]); nothing here knows about scheduling.
//!
//! Scale expectations: exact MILP is intended for the small instances the
//! paper's ILP actually admits (tens of binaries). Where Section III
//! relaxes and rounds ("we can first relax the problem … then use integer
//! rounding"), this workspace falls back to the list-scheduling heuristic
//! in `dsp-sched` instead; there is no rounding tier.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod branch_bound;
pub mod error;
pub mod problem;
pub mod simplex;

pub use branch_bound::{solve_milp, MilpOptions, MilpSolution, WorkerCounters};
pub use error::{LpError, Status};
pub use problem::{Cmp, Constraint, Problem, Sense, VarId};
pub use simplex::{solve_lp, Solution};
