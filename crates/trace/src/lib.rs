//! Synthetic Google-cluster-trace-like workload generation.
//!
//! Section V builds its workload from the May 2011 Google cluster trace:
//! task CPU/memory consumption and execution times are drawn from the
//! trace, arrivals happen at 2–5 jobs per minute, jobs come in equal
//! numbers of small/medium/large (hundreds / 1000 / 2000 tasks), and the
//! dependency DAG is *constructed* by the paper's own rule — "when there is
//! no overlap between the execution times of two tasks of a job, we can
//! create a dependency relationship between the two tasks" — capped at five
//! levels and fifteen dependents per task \[6\].
//!
//! The real trace is not redistributable, so this crate synthesises records
//! with matched marginals (log-normal durations, heavy-tailed normalized
//! CPU/memory in (0,1], Poisson arrivals) and then applies the *same*
//! window-overlap DAG rule. See DESIGN.md §2.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod dag_builder;
pub mod distributions;
pub mod generator;
pub mod models;

pub use dag_builder::{build_dag_from_windows, MAX_IN_DEGREE, MAX_LEVELS, MAX_OUT_DEGREE};
pub use distributions::{exponential, log_normal, poisson_arrivals, std_normal, LogNormalParams};
pub use generator::{
    generate_workload, TraceParams, BW_MBPS, CPU, DISK_MB, DURATION_SECS, MEM, REFERENCE_MIPS,
    STAGES,
};
pub use models::{ArrivalModel, ExecModel};
