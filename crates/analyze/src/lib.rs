//! `dsp-analyze`: the repo-native determinism & concurrency lint wall.
//!
//! The simulator's headline guarantee (PR 4 onward) is *bit-identical
//! schedules at every thread count*. That property is easy to state and
//! easy to lose: one `HashMap` iteration in a scheduler loop, one
//! `partial_cmp(..).unwrap_or(Equal)` comparator fed a NaN, one
//! `Instant::now()` in a cost model, and runs stop being reproducible —
//! usually silently, often only at some thread counts. Generic tooling
//! (clippy) does not know which crates carry the determinism contract or
//! which sorts feed the schedule, so this crate encodes the repo's own
//! rules as a small, dependency-free analyzer and CI runs it as a blocking
//! gate.
//!
//! Design (see DESIGN.md §12 for the catalog and waiver policy):
//!
//! - [`lexer`] — a token scanner, not a parser: comments and strings are
//!   first-class tokens so content never masquerades as code.
//! - [`lints`] — the catalog. Each lint is a token-pattern statement with a
//!   stable ID (`D1`…`P1`), scoped by crate via [`lints::FileCtx`].
//! - [`waiver`] — inline `// dsp-allow: <ID> — <reason>` suppressions;
//!   malformed waivers are themselves findings (`W1`).
//! - [`walker`] — which files are in scope (shipped `src/` trees).
//! - [`report`] — the human/JSON renderings.
//!
//! The crate is a library so the `dsp analyze` subcommand *and* the test
//! suites drive the same entry points: [`analyze_source`] for one file,
//! [`analyze_workspace`] for the whole tree.

pub mod lexer;
pub mod lints;
pub mod report;
pub mod waiver;
pub mod walker;

use lints::{FileCtx, LintId, PassCtx, ALL_LINTS};
use report::Finding;
use std::io;
use std::path::Path;

/// What to run.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Restrict to these lints (`None` = the full catalog). W1 (malformed
    /// waiver) always runs: a broken waiver must surface even in a filtered
    /// run, otherwise `--lint D1` would hide the evidence that a D1 waiver
    /// is not actually in force.
    pub lints: Option<Vec<LintId>>,
}

/// The outcome of a workspace run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every unwaivered finding — these gate CI.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Analyze one file's source text under the given scope. Returns findings
/// with waivers already applied and any malformed-waiver (`W1`) findings
/// appended. This is the single choke point both the CLI and the fixture
/// tests go through, so a fixture proving a lint fires is proving the
/// production path.
pub fn analyze_source(
    source: &str,
    file: &FileCtx,
    lint_filter: Option<&[LintId]>,
) -> Vec<Finding> {
    let toks = lexer::lex(source);
    let ctx = PassCtx::new(&toks, file);
    let selected: Vec<LintId> = match lint_filter {
        Some(ids) => ids.to_vec(),
        None => ALL_LINTS.to_vec(),
    };
    let mut findings = Vec::new();
    lints::run_passes(&ctx, &selected, &mut findings);
    let (waivers, mut malformed) = waiver::collect_waivers(&toks, &file.rel_path);
    let mut kept = waiver::apply_waivers(findings, &waivers);
    kept.append(&mut malformed);
    // One stable order regardless of pass order: by position, then lint.
    kept.sort_by_key(|f| (f.line, f.col, f.lint));
    kept
}

/// Analyze every in-scope file under `root`. Output order is deterministic
/// (files sorted by path, findings by position).
pub fn analyze_workspace(root: &Path, opts: &Options) -> io::Result<Analysis> {
    let files = walker::workspace_files(root)?;
    let files_scanned = files.len();
    let mut findings = Vec::new();
    for f in &files {
        let source = std::fs::read_to_string(&f.path)?;
        findings.extend(analyze_source(&source, &f.ctx, opts.lints.as_deref()));
    }
    Ok(Analysis { findings, files_scanned })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_ctx() -> FileCtx {
        FileCtx {
            crate_name: "sched".into(),
            rel_path: "crates/sched/src/x.rs".into(),
            is_bin: false,
        }
    }

    #[test]
    fn end_to_end_finding_waiver_and_w1() {
        let src = "\
use std::collections::HashMap;\n\
let ok: HashMap<u32, u32> = HashMap::new(); // dsp-allow: D1 — membership only\n\
// dsp-allow: bogus\n\
let bad = 1;\n";
        let findings = analyze_source(src, &det_ctx(), None);
        // Line 1's import fires D1 (un-waived), line 2 is waived, line 3's
        // malformed waiver fires W1.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].lint, LintId::D1);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].lint, LintId::W1);
        assert_eq!(findings[1].line, 3);
    }

    #[test]
    fn lint_filter_still_reports_w1() {
        let src = "// dsp-allow: D1\nlet x = 1;\n";
        let findings = analyze_source(src, &det_ctx(), Some(&[LintId::D3]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, LintId::W1);
    }

    #[test]
    fn findings_sorted_by_position() {
        let src = "fn f(a: f64, b: f64) {\n\
            let m: std::collections::HashMap<u32, u32> = Default::default();\n\
            let _ = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);\n\
        }\n";
        let findings = analyze_source(src, &det_ctx(), None);
        assert!(findings.len() >= 2);
        assert!(findings.windows(2).all(|w| (w[0].line, w[0].col) <= (w[1].line, w[1].col)));
    }
}
