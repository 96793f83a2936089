//! Plain-text emitters: the `reproduce` binary prints every figure as a
//! markdown table (rows = sweep points, columns = methods) and can dump CSV
//! for plotting.

use crate::series::SweepSeries;
use std::fmt::Write as _;

/// Render a sweep as a GitHub-flavoured markdown table.
pub fn render_markdown(s: &SweepSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {} — {}", s.id, s.title);
    let _ = writeln!(out, "_y: {}_", s.y_label);
    let mut header = format!("| {} |", s.x_label);
    let mut rule = String::from("|---|");
    for m in &s.series {
        let _ = write!(header, " {} |", m.method);
        rule.push_str("---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    for (i, x) in s.x.iter().enumerate() {
        let _ = write!(out, "| {x} |");
        for m in &s.series {
            let _ = write!(out, " {:.4} |", m.values[i]);
        }
        out.push('\n');
    }
    out
}

/// Render a sweep as CSV: `x,method1,method2,…` header then one row per
/// sweep point.
pub fn render_csv(s: &SweepSeries) -> String {
    let mut out = String::new();
    let mut header = String::from("x");
    for m in &s.series {
        let _ = write!(header, ",{}", m.method.replace(',', ";"));
    }
    let _ = writeln!(out, "{header}");
    for (i, x) in s.x.iter().enumerate() {
        let _ = write!(out, "{x}");
        for m in &s.series {
            let _ = write!(out, ",{}", m.values[i]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepSeries {
        let mut s = SweepSeries::new("fig", "demo", "jobs", "makespan (s)", vec![150.0, 300.0]);
        s.push("DSP", vec![1.5, 3.0]);
        s.push("Aalo", vec![2.0, 4.0]);
        s
    }

    #[test]
    fn markdown_has_all_cells() {
        let md = render_markdown(&sweep());
        assert!(md.contains("| jobs | DSP | Aalo |"));
        assert!(md.contains("| 150 | 1.5000 | 2.0000 |"));
        assert!(md.contains("| 300 | 3.0000 | 4.0000 |"));
    }

    #[test]
    fn csv_shape() {
        let csv = render_csv(&sweep());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,DSP,Aalo");
        assert_eq!(lines[1], "150,1.5,2");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn csv_escapes_commas_in_method_names() {
        let mut s = SweepSeries::new("f", "t", "x", "y", vec![1.0]);
        s.push("a,b", vec![0.5]);
        assert!(render_csv(&s).starts_with("x,a;b"));
    }
}
