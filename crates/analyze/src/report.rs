//! Findings and their two renderings: compiler-style human text and a
//! line-oriented JSON document (hand-rolled — the analyzer is
//! dependency-free, and the output shape is small and fixed).

use crate::lints::{LintId, ALL_LINTS};

/// One lint violation, anchored to a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: LintId,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation, including the suggested fix.
    pub message: String,
}

impl Finding {
    /// `path:line:col`, compiler style.
    pub fn location(&self) -> String {
        format!("{}:{}:{}", self.path, self.line, self.col)
    }
}

/// Compiler-style report: one block per finding plus a per-lint summary.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{}: [{}] {}\n", f.location(), f.lint.as_str(), f.message));
    }
    if findings.is_empty() {
        out.push_str("dsp-analyze: no findings\n");
    } else {
        out.push_str(&format!("\ndsp-analyze: {} finding(s)", findings.len()));
        let mut parts = Vec::new();
        for lint in ALL_LINTS {
            let n = findings.iter().filter(|f| f.lint == lint).count();
            if n > 0 {
                parts.push(format!("{} ×{}", lint.as_str(), n));
            }
        }
        out.push_str(&format!(" ({})\n", parts.join(", ")));
    }
    out
}

/// JSON report: `{"version":1,"findings":[…],"count":n}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"lint\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{}}}",
            json_str(f.lint.as_str()),
            json_str(&f.path),
            f.line,
            f.col,
            json_str(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            lint: LintId::D1,
            path: "crates/sched/src/x.rs".into(),
            line: 3,
            col: 9,
            message: "a \"quoted\" message\nwith newline".into(),
        }
    }

    #[test]
    fn human_report_lists_and_summarizes() {
        let text = render_human(&[finding()]);
        assert!(text.contains("crates/sched/src/x.rs:3:9"));
        assert!(text.contains("[D1]"));
        assert!(text.contains("1 finding(s) (D1 ×1)"));
        assert!(render_human(&[]).contains("no findings"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let doc = render_json(&[finding()]);
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("\\n"));
        assert!(doc.ends_with("\"count\":1}"));
        assert!(render_json(&[]).contains("\"count\":0"));
    }
}
