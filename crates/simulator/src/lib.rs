//! Discrete-event data-parallel cluster simulator.
//!
//! This is the testbed substitute (DESIGN.md §2): nodes with the Eq. 1 rate
//! model run tasks from per-node waiting queues; an offline [`Schedule`]
//! (from `dsp-sched`) says which node runs which task and in what planned
//! order; an online [`PreemptPolicy`] (from `dsp-preempt`) is consulted at
//! every epoch boundary and may evict running tasks in favour of waiting
//! ones, paying the context-switch/recovery cost `t^r + σ` the paper
//! charges per preemption.
//!
//! Semantics reproduced from the paper:
//!
//! * a node runs at most `slots` tasks concurrently; excess tasks wait in a
//!   queue ordered by their scheduled starting time (Section IV-B, Fig. 4);
//! * a task only *executes* when all its precedent tasks are done. When a
//!   policy dispatches a task whose precedents are unfinished, the engine
//!   counts a **disorder** (Fig. 6a's metric), charges the wasted context
//!   switch, and refuses the dispatch — dependency-oblivious baselines pay
//!   exactly this way;
//! * preempted tasks either resume from their checkpoint (checkpoint-restart
//!   \[29\], used by DSP/Amoeba/Natjam) or restart from scratch (SRPT), and
//!   pay `t^r + σ` of recovery before doing useful work again;
//! * deadlines are propagated to per-task deadlines through DAG levels once
//!   per job (Section IV-B) and exposed to policies via
//!   [`policy::TaskSnapshot::deadline`].

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod engine;
pub mod faults;
pub mod history;
pub mod policy;
pub mod schedule;
pub mod state;

pub use engine::{Engine, EngineConfig, JobProgress, LOOKAHEAD, SIGMA};
pub use faults::{Fault, FaultPlan};
pub use history::{ExecHistory, TaskHistory};
pub use policy::{NoPreempt, NodeView, PreemptAction, PreemptPolicy, TaskSnapshot, WorldCtx};
pub use schedule::{Assignment, Schedule};
