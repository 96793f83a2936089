//! DAG job/task model for the DSP reproduction.
//!
//! Jobs in a data-parallel cluster are directed acyclic graphs of tasks: a
//! task cannot start until all of its precedent tasks have finished
//! (Section III of the paper). This crate owns everything that is pure graph
//! math and needs no clock or cluster:
//!
//! * [`graph::Dag`] — adjacency structure with cycle rejection and
//!   topological utilities;
//! * [`levels::Levels`] — the paper's DAG "levels" (longest distance from a
//!   root), which drive both the Fig. 3 priority intuition and per-level
//!   deadline propagation;
//! * [`deadline`] — per-level task deadlines and allowable waiting time
//!   (Section IV-B);
//! * [`critical_path`] — upward ranks / critical path lengths used by the
//!   list scheduler;
//! * [`generate`] — random DAG generators with the paper's structural caps
//!   (depth ≤ 5, out-degree ≤ 15 \[6\]).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod critical_path;
pub mod deadline;
pub mod generate;
pub mod graph;
pub mod ids;
pub mod job;
pub mod levels;
pub mod task;
pub mod validate;

pub use critical_path::{critical_path_len, upward_ranks};
pub use deadline::{allowable_waiting_time, level_deadlines};
pub use generate::DagShape;
pub use graph::Dag;
pub use ids::{JobId, TaskId};
pub use job::{Job, JobClass};
pub use levels::Levels;
pub use task::TaskSpec;
pub use validate::{validate_job, validate_jobs, BatchError, ValidationError};
