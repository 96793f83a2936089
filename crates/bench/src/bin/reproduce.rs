//! Regenerate every table and figure of the paper's evaluation section,
//! and every ablation ([`USAGE`]): the entries of `dsp_core::FIGURES`,
//! in order.
//!
//! A word selects every entry whose name it begins or extends (`fig5` runs
//! both panels, `fig6b` fig6, `ablation` every ablation,
//! `ablation_rho_preemptions` ablation_rho). With no word, everything runs,
//! or with `--quick` the paper's figures (`fig`) only. `--quick` shrinks
//! the sweep for a fast smoke pass; `--csv DIR` additionally writes one CSV
//! per figure into DIR for plotting. A word that selects nothing, an
//! unknown flag, or a `--csv` without a DIR exits 2 naming the word.
//! Every cell is audited (R1–R6): each entry ends with one line of cells,
//! errors and warnings by rule, and any error exits 1 once all have printed.

use dsp_core::flags::{usage_error, Flags};
use dsp_core::{ClusterProfile, FigureScale, FIGURES};
use dsp_metrics::{render_csv, render_markdown};
use std::io::Write as _;

const USAGE: &str =
    "usage: reproduce [--quick] [--csv DIR] [fig5a fig5b fig6 fig7 fig8 ablation ...]";

/// Does `word` select the figure `name`?
fn selects(word: &str, name: &str) -> bool {
    name.starts_with(word) || word.starts_with(name)
}

/// `--quick`: the paper's sweep at a fifth of its job counts.
fn quick_scale() -> FigureScale {
    FigureScale {
        job_counts: vec![30, 60, 90, 120, 150],
        scalability_counts: vec![100, 200, 300, 400, 500],
    }
}

/// The command line: `--quick`, the `--csv` directory, the words naming
/// figures (none means every entry, or under `--quick` the `fig` ones).
fn parse(argv: &[String]) -> Result<(bool, Option<&str>, Vec<&str>), String> {
    let mut quick = false;
    let mut csv_dir = None;
    let mut wanted = Vec::new();
    let mut flags = Flags::new(argv);
    while let Some(word) = flags.next_flag()? {
        match word {
            "--quick" => quick = true,
            "--csv" => csv_dir = Some(flags.text()?),
            _ if word.starts_with('-') => return Err(flags.unknown()),
            _ if FIGURES.iter().any(|&(name, _)| selects(word, name)) => wanted.push(word),
            _ => return Err(format!("`{word}` selects no figure")),
        }
    }
    if wanted.is_empty() {
        wanted.push(if quick { "fig" } else { "" });
    }
    Ok((quick, csv_dir, wanted))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (quick, csv_dir, wanted) = parse(&argv)
        .unwrap_or_else(|msg| std::process::exit(usage_error("reproduce", &msg, USAGE)));
    let scale = if quick { quick_scale() } else { FigureScale::paper() };
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("reproduce: --csv: cannot create {dir}: {e}");
            std::process::exit(2)
        }
    }
    println!(
        "# DSP reproduction — {} scale (jobs {:?}, task scale {} on EC2, {} on the real cluster)\n",
        if quick { "quick" } else { "paper" },
        scale.job_counts,
        ClusterProfile::Ec2.task_scale(),
        ClusterProfile::Palmetto.task_scale(),
    );

    let mut errors = 0;
    let selected = FIGURES.iter().filter(|(name, _)| wanted.iter().any(|word| selects(word, name)));
    for (name, build) in selected {
        let (figs, audit) = build(name, &scale);
        let mut stdout = std::io::stdout().lock();
        for fig in figs {
            let _ = writeln!(stdout, "{}", render_markdown(&fig));
            if let Some(dir) = csv_dir {
                let path = format!("{dir}/{}.csv", fig.id);
                match std::fs::write(&path, render_csv(&fig)) {
                    Ok(()) => {
                        let _ = writeln!(stdout, "_wrote {path}_\n");
                    }
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        }
        let _ = writeln!(stdout, "_{name}: {audit}_\n");
        errors += audit.errors();
    }
    if errors > 0 {
        eprintln!("reproduce: {errors} error-severity audit findings");
        std::process::exit(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(
            quick_scale().job_counts.iter().max() <= FigureScale::paper().job_counts.iter().min()
        );
        assert_eq!(FigureScale::paper().job_counts, vec![150, 300, 450, 600, 750]);
    }
}
