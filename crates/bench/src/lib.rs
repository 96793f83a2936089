//! The command-line binaries: `dsp` (run, verify, matrix, analyze, and
//! the service verbs) and `reproduce`, plus the scales `reproduce` sweeps.
//!
//! `cargo run -p dsp-bench --release --bin reproduce` regenerates every
//! figure of the paper's evaluation as markdown tables (and CSV with
//! `--csv`). Performance is measured by `dsp-benchmark` (crates/benchmark).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use dsp_core::FigureScale;

/// The scale the `reproduce` binary uses by default: the paper's x axes
/// with per-job task counts at 2%.
pub fn reproduce_scale() -> FigureScale {
    FigureScale::paper()
}

/// A reduced reproduce scale (`reproduce --quick`) for smoke runs.
pub fn quick_scale() -> FigureScale {
    FigureScale {
        job_counts: vec![30, 60, 90, 120, 150],
        scalability_counts: vec![100, 200, 300, 400, 500],
        task_scale: 0.06,
        task_scale_palmetto: 0.2,
        seed: 2018,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(quick_scale().job_counts.iter().max() <= reproduce_scale().job_counts.iter().min());
        assert_eq!(reproduce_scale().job_counts, vec![150, 300, 450, 600, 750]);
    }
}
