//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! reproduce [--quick] [--csv DIR] [fig5a fig5b fig6 fig7 fig8 ablation ...]
//! ```
//!
//! With no figure arguments, everything runs. `--quick` shrinks the sweep
//! for a fast smoke pass; `--csv DIR` additionally writes one CSV per
//! figure into DIR for plotting.

use dsp_bench::{quick_scale, reproduce_scale};
use dsp_core::{fig5, fig6, fig7, fig8, ClusterProfile, FigureScale};
use dsp_metrics::{render_csv, render_markdown, SweepSeries};
use std::io::Write as _;

fn emit(fig: &SweepSeries, csv_dir: Option<&str>) {
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{}", render_markdown(fig));
    if let Some(dir) = csv_dir {
        let path = format!("{dir}/{}.csv", fig.id);
        match std::fs::write(&path, render_csv(fig)) {
            Ok(()) => {
                let _ = writeln!(stdout, "_wrote {path}_\n");
            }
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir =
        args.iter().position(|a| a == "--csv").and_then(|i| args.get(i + 1)).map(String::as_str);
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && Some(a.as_str()) != csv_dir)
        .map(String::as_str)
        .collect();
    let all = wanted.is_empty();
    let want =
        |name: &str| all || wanted.iter().any(|w| name.starts_with(w) || w.starts_with(name));

    let scale: FigureScale = if quick { quick_scale() } else { reproduce_scale() };
    if let Some(dir) = csv_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    println!(
        "# DSP reproduction — {} scale (jobs {:?}, task scale {})\n",
        if quick { "quick" } else { "paper" },
        scale.job_counts,
        scale.task_scale
    );

    if want("fig5a") {
        emit(&fig5(ClusterProfile::Palmetto, &scale), csv_dir);
    }
    if want("fig5b") {
        emit(&fig5(ClusterProfile::Ec2, &scale), csv_dir);
    }
    if want("fig6") {
        for f in fig6(&scale) {
            emit(&f, csv_dir);
        }
    }
    if want("fig7") {
        for f in fig7(&scale) {
            emit(&f, csv_dir);
        }
    }
    if want("fig8") {
        for f in fig8(&scale) {
            emit(&f, csv_dir);
        }
    }
    if wanted.contains(&"ablation") || (all && !quick) {
        for f in dsp_core::all_ablations(&scale) {
            emit(&f, csv_dir);
        }
    }
}
