//! `dsp-verify`: a composable, rule-based invariant checker for the DSP
//! reproduction (DESIGN.md "Verification").
//!
//! The paper's correctness claims reduce to checkable invariants. This
//! crate checks them and reports structured [`Diagnostic`]s — rule id,
//! severity, task/node/time location, message — instead of booleans:
//!
//! | rule | property | paper reference |
//! |------|----------|-----------------|
//! | R1 | every task assigned exactly once, to a real node | `Σ_k x_ij,k = 1` |
//! | R2 | no start before a parent's planned finish | Eq. 2, `t^s + l/g(k)` |
//! | R3 | no node oversubscribed at any planned instant | Eq. 3–4 |
//! | R4 | planned finishes meet level-propagated deadlines | Eq. 5 |
//! | R5 | paid recovery equals `N^p (t^r + σ)` | Section II-C |
//! | R6 | executed MI minus discarded MI equals task size | work conservation |
//!
//! R1–R4 are static rules over a planned [`dsp_sim::Schedule`]
//! ([`check_schedule`], or [`check_coverage`] for R1 alone); R5–R6 are
//! dynamic rules over a finished run's [`dsp_sim::ExecHistory`]
//! ([`check_execution`]); [`audit`] is the two merged, the one call behind
//! every "verified R1–R6". [`bounds`] is no rule yet: the makespan no plan
//! can beat, which the exact arm uses to prove a plan optimal without a
//! solver. The checker is wired in at three layers: debug
//! assertions inside `dsp-core`'s pipeline (R1 per planned batch, R5–R6 at
//! engine exit), the audit `dsp`, `dsp matrix` and `dsp verify` run over
//! live runs and snapshot artifacts, and mutation-style tests that
//! corrupt schedules and assert the right rule fires.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bounds;
pub mod diag;
pub mod exec_rules;
pub mod schedule_rules;

pub use diag::{Diagnostic, Report, Rule, Severity};
pub use exec_rules::check_execution;
pub use schedule_rules::{check_coverage, check_schedule};

/// What the checked configuration promises, which decides rule severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// The scheduler claims dependency awareness: R2 violations are errors.
    /// `false` for dependency-oblivious baselines (Tetris w/o dep plans
    /// child starts before parent finishes *by design* — its defining
    /// flaw), where R2 findings are warnings that quantify the flaw.
    pub dependency_aware: bool,
    /// Run R4 (deadline feasibility). Disable for workloads with synthetic
    /// or absent deadlines.
    pub check_deadlines: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { dependency_aware: true, check_deadlines: true }
    }
}

/// The full audit of a plan and its execution: R1–R4 over `schedule`,
/// then R5–R6 over `history`, with the history-vs-metrics overhead
/// cross-check when the run's `metrics` are at hand. Whoever says
/// "verified R1–R6" calls this.
pub fn audit(
    schedule: &dsp_sim::Schedule,
    jobs: &[dsp_dag::Job],
    cluster: &dsp_cluster::ClusterSpec,
    opts: &VerifyOptions,
    history: &dsp_sim::ExecHistory,
    metrics: Option<&dsp_metrics::RunMetrics>,
) -> Report {
    let mut report = check_schedule(schedule, jobs, cluster, opts);
    report.merge(check_execution(history, metrics));
    report
}
