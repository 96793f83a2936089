//! Offline schedulers: DSP (Section III) and the baselines of Section V.
//!
//! Every scheduler consumes a batch of jobs plus the cluster and emits a
//! [`dsp_sim::Schedule`] — the `[t^s_ij, k|x_ijk=1]` pairs the paper's ILP
//! outputs. Four families are implemented:
//!
//! * [`DspIlpScheduler`] — the exact Section III MILP (via `dsp-lp`) on
//!   instances small enough for exact search, with automatic fallback to
//!   the list heuristic (where the paper relaxes and rounds);
//! * [`DspListScheduler`] — dependency-aware list scheduling: the fastest
//!   node with a free slot goes to the ready task ranked first by upward
//!   rank and the Eq. 12 descendant weight (the practical arm used at
//!   scale);
//! * [`TetrisScheduler`] — multi-resource alignment packing \[7\], in the
//!   paper's two flavours: `W/oDep` (dependency-oblivious) and `W/SimDep`
//!   (precedents strictly before dependents);
//! * [`AaloScheduler`] — coflow-style multi-level queues without prior
//!   knowledge \[11\], treating a job as a coflow and its tasks as flows.
//!
//! Plus [`FifoScheduler`] and [`RandomScheduler`] as sanity baselines.
//! All but the MILP plan through one loop, `pack`, which asks each
//! scheduler's order which task gets a freed slot.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod aalo;
pub mod api;
pub mod dsp_ilp;
pub mod dsp_list;
pub mod fifo;
mod pack;
pub mod random;
pub mod tetris;

pub use aalo::AaloScheduler;
pub use api::Scheduler;
pub use dsp_ilp::{DspIlpScheduler, IlpLimits, IlpStats};
pub use dsp_list::DspListScheduler;
pub use fifo::FifoScheduler;
pub use random::RandomScheduler;
pub use tetris::{TetrisDep, TetrisScheduler};
