//! DSP — Dependency-aware Scheduling and Preemption: the public façade.
//!
//! This crate wires the substrates together into the system the paper
//! describes and the experiment harness that regenerates its evaluation:
//!
//! * [`pipeline`] — the two-phase loop, assembled once: a
//!   [`dsp_sched::Scheduler`] produces `[start, node]` per task every
//!   scheduling period ([`PeriodPlanner`]); [`execute`] runs the plan under
//!   an online policy that adjusts the running mix every epoch and returns
//!   the [`Run`]; [`Run::audit`] checks it against R1–R6.
//! * [`methods`] — the method table: every scheduler, policy and cluster
//!   profile with its one name, paper label and constructor.
//! * [`flags`] — the command-line reader every binary walks its
//!   arguments with.
//! * [`DspSystem`] — the façade over your own jobs (DSP offline + online).
//! * [`config::Params`] — Table II's parameter settings in one struct.
//! * [`experiment`] — a declarative experiment runner
//!   (`ExperimentConfig` → `RunMetrics`).
//! * [`sweep`] — the parallel fan-out [`figures`] runs its cells on
//!   (scoped threads, one simulation per worker).
//! * [`figures`] — one table of sweeps, [`FIGURES`]: every paper figure
//!   (Fig. 5–8) and every ablation, each returning the
//!   `dsp_metrics::SweepSeries` that the `reproduce` binary prints.
//!
//! ```
//! use dsp_core::{DspSystem, config::Params};
//! use dsp_trace::{generate_workload, TraceParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let trace = TraceParams { task_scale: 0.02, ..TraceParams::default() };
//! let jobs = generate_workload(&mut rng, 6, &trace);
//! let system = DspSystem::new(dsp_cluster::ec2(), Params::default());
//! let report = system.run(&jobs);
//! assert_eq!(report.jobs_completed(), 6);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod experiment;
pub mod figures;
pub mod flags;
pub mod matrix;
pub mod methods;
pub mod pipeline;
pub mod sweep;
pub mod system;

pub use config::Params;
pub use experiment::{run_experiment, ExperimentConfig};
pub use figures::{FigureScale, FIGURES};
pub use matrix::{run_matrix, CellOutput, DeadlineTier, MatrixConfig, Scenario, Storm};
pub use methods::{ClusterProfile, PreemptMethod, SchedMethod};
pub use pipeline::{execute, PeriodPlanner, Run};
pub use sweep::parallel_map;
pub use system::DspSystem;

// Re-export the workspace so downstream users need one dependency.
pub use dsp_cluster as cluster;
pub use dsp_dag as dag;
pub use dsp_lp as lp;
pub use dsp_metrics as metrics;
pub use dsp_preempt as preempt;
pub use dsp_sched as sched;
pub use dsp_sim as sim;
pub use dsp_trace as trace;
pub use dsp_units as units;
pub use dsp_verify as verify;
