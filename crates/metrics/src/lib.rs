//! Metric collection and reporting.
//!
//! Section V evaluates five quantities, all computed here from raw counters
//! the simulator feeds in:
//!
//! * **makespan** — when the last job finishes (Fig. 5, Fig. 8a);
//! * **throughput** in tasks/ms (Fig. 6b, 7b, 8b);
//! * **number of disorders** — dispatches whose execution order is
//!   inconsistent with the dependency relation (Fig. 6a, 7a);
//! * **average waiting time of jobs** (Fig. 6c, 7c);
//! * **number of preemptions** (Fig. 6d, 7d).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod collect;
pub mod series;
pub mod table;

pub use collect::{JobOutcome, RunMetrics};
pub use series::{MethodSeries, SweepSeries};
pub use table::{render_csv, render_markdown};
