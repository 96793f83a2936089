//! DSP — Dependency-aware Scheduling and Preemption: the public façade.
//!
//! This crate wires the substrates together into the system the paper
//! describes and the experiment harness that regenerates its evaluation:
//!
//! * [`pipeline`] — the two-phase loop, assembled once: a
//!   [`dsp_sched::Scheduler`] produces `[start, node]` per task every
//!   scheduling period ([`PeriodPlanner`]), and the [`Plan`] holds those
//!   batches with their R1–R4 audit; [`execute`] runs a plan under an
//!   online policy that adjusts the running mix every epoch and returns the
//!   [`Run`]; [`run_audited`] plans and makes one audited run of the plan
//!   (R1–R6, [`Plan::run_audited`]).
//! * [`methods`] — the method table: every scheduler, policy and cluster
//!   profile with its one name, paper label, constructor and audit options.
//! * [`flags`] — the command-line reader every binary walks its
//!   arguments with.
//! * [`config::Params`] — Table II's parameter settings in one struct.
//! * [`experiment`] — a declarative experiment runner
//!   (`ExperimentConfig` → audited `Run`).
//! * [`sweep`] — the parallel fan-out [`figures`] runs its cells on
//!   (scoped threads, one simulation per worker).
//! * [`figures`] — one table of sweeps, [`FIGURES`]: every paper figure
//!   (Fig. 5–8) and every ablation, each returning the
//!   `dsp_metrics::SweepSeries` that the `reproduce` binary prints and the
//!   audit of the cells behind them.
//!
//! ```
//! use dsp_core::{execute, Params, Plan, PreemptMethod, SchedMethod};
//! use dsp_core::sim::FaultPlan;
//! use dsp_trace::{generate_workload, TraceParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let trace = TraceParams { task_scale: 0.02, ..TraceParams::default() };
//! let jobs = generate_workload(&mut rng, 6, &trace);
//! let (cluster, params) = (dsp_cluster::ec2(), Params::default());
//! let plan = Plan::of(&jobs, &cluster, &params, SchedMethod::Dsp, 0);
//! let mut policy = PreemptMethod::Dsp.build(&params);
//! let run = execute(&plan, &jobs, &cluster, &params, policy.as_mut(), FaultPlan::none());
//! assert_eq!(run.metrics.jobs_completed(), 6);
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

pub use config::Params;
pub use experiment::{run_experiment, ExperimentConfig};
pub use figures::{FigureScale, FIGURES};
pub use matrix::{run_matrix, CellOutput, DeadlineTier, MatrixConfig, Scenario, Storm};
pub use methods::{ClusterProfile, PreemptMethod, SchedMethod};
pub use pipeline::{execute, run_audited, PeriodPlanner, Plan, Run};
pub use sweep::parallel_map;

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
