//! The lint catalog: stable IDs, per-lint scoping rules, and the shared
//! token-walking helpers the passes are built from.
//!
//! Every lint is a *token-pattern* statement (see DESIGN.md §12): no type
//! information, no name resolution. That keeps the analyzer dependency-free
//! and its verdicts explainable — a finding always points at a literal
//! token sequence in the file. The cost is heuristic scoping (e.g. "a
//! `.read()` with empty parens acquires a guard"), which the inline waiver
//! syntax exists to absorb.

pub mod concurrency;
pub mod determinism;
pub mod panics;

use crate::lexer::Tok;
use crate::report::Finding;

/// Stable lint identifiers. IDs are append-only: a shipped ID never changes
/// meaning, because waivers and baselines reference it by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// `HashMap`/`HashSet` in a deterministic crate (iteration order is
    /// seeded per-process; use `BTreeMap`/indexed arenas or waive with a
    /// membership-only justification).
    D1,
    /// Wall clock / entropy (`Instant::now`, `SystemTime`, `thread_rng`,
    /// `from_entropy`) outside `bench`/`service`/binary targets.
    D2,
    /// `partial_cmp(..)` collapsed with `unwrap`/`unwrap_or(..)` — a NaN
    /// silently becomes `Equal` and the comparator stops being total.
    D3,
    /// Float-keyed `sort_by`/`sort_unstable_by` without a deterministic
    /// tie-break (`.then`/`.then_with`), unless the elements themselves are
    /// the keys.
    D4,
    /// Atomic memory ordering without an adjacent `// ordering:`
    /// justification comment.
    C1,
    /// Lock guard held across `send`/`recv`/`join`/blocking I/O in
    /// `crates/service`.
    C2,
    /// `unwrap`/`expect`/`panic!`-family/slice-index in the service front
    /// end (`server.rs` and the `reactor/` event loop) — request handlers
    /// must map failures to stable reason tokens, not tear the connection
    /// thread (or, for a reactor thread, every connection it owns) down.
    P1,
    /// Malformed `dsp-allow` waiver comment (unknown lint ID, missing
    /// reason). Not waivable.
    W1,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: [LintId; 8] = [
    LintId::D1,
    LintId::D2,
    LintId::D3,
    LintId::D4,
    LintId::C1,
    LintId::C2,
    LintId::P1,
    LintId::W1,
];

impl LintId {
    /// The stable textual ID (used in waivers, baselines, and `--lint`).
    pub fn as_str(self) -> &'static str {
        match self {
            LintId::D1 => "D1",
            LintId::D2 => "D2",
            LintId::D3 => "D3",
            LintId::D4 => "D4",
            LintId::C1 => "C1",
            LintId::C2 => "C2",
            LintId::P1 => "P1",
            LintId::W1 => "W1",
        }
    }

    /// Parse a textual ID (case-insensitive).
    pub fn parse(s: &str) -> Option<LintId> {
        ALL_LINTS.iter().copied().find(|l| l.as_str().eq_ignore_ascii_case(s.trim()))
    }

    /// One-line description for `--help`-style listings and reports.
    pub fn summary(self) -> &'static str {
        match self {
            LintId::D1 => "HashMap/HashSet in a deterministic crate",
            LintId::D2 => "wall clock or entropy outside bench/service/bin",
            LintId::D3 => "partial_cmp collapsed with unwrap/unwrap_or",
            LintId::D4 => "float-keyed sort without a deterministic tie-break",
            LintId::C1 => "atomic ordering without an `// ordering:` justification",
            LintId::C2 => "lock guard held across send/recv/join/blocking I/O",
            LintId::P1 => "panic path (unwrap/expect/index) in a request handler",
            LintId::W1 => "malformed dsp-allow waiver",
        }
    }
}

/// Crates whose source must be reproducible bit-for-bit under a fixed seed
/// (the PR 4 determinism contract). D-class lints apply here.
pub const DETERMINISTIC_CRATES: [&str; 7] =
    ["dag", "sched", "preempt", "lp", "simulator", "trace", "verify"];

/// Crates allowed to read the wall clock and OS entropy: the perf harness
/// and the online service are *about* real time.
pub const WALL_CLOCK_CRATES: [&str; 2] = ["bench", "service"];

/// Where a source file sits in the workspace — determines which lints run.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate directory name (`sched`, `service`, …); the umbrella crate's
    /// `src/` uses `dsp-repro`.
    pub crate_name: String,
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// True for binary targets (`src/bin/**`, `main.rs`): entry points may
    /// touch the clock for CLI UX even inside deterministic crates.
    pub is_bin: bool,
}

impl FileCtx {
    /// Does this file belong to a determinism-contract crate?
    pub fn is_deterministic_crate(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_name.as_str())
    }

    /// File basename (`server.rs`).
    pub fn basename(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(&self.rel_path)
    }
}

/// Mark every token inside a `#[cfg(test)] mod … { … }` region. Test code
/// is exempt from the catalog: tests legitimately use hash collections,
/// wall-clock deadlines, and unwraps, and cfg-gating keeps them out of the
/// shipped artifact anyway.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut masked = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut ci = 0usize;
    while ci < code.len() {
        if is_cfg_test_at(toks, &code, ci) {
            // Skip past the attribute's closing `]` (code index ci+6), any
            // further attributes, then expect `mod name {` and mask to the
            // matching brace.
            let mut j = ci + 7; // first code token after `]`
                                // Skip stacked attributes between cfg(test) and the item.
            while j < code.len() && toks[code[j]].is_punct('#') {
                j = skip_attribute(toks, &code, j);
            }
            if j < code.len() && toks[code[j]].is_ident("mod") {
                // Find the opening brace of the module body.
                let mut k = j;
                while k < code.len() && !toks[code[k]].is_punct('{') {
                    k += 1;
                }
                if k < code.len() {
                    let mut depth = 0i32;
                    let mut end = k;
                    while end < code.len() {
                        if toks[code[end]].is_punct('{') {
                            depth += 1;
                        } else if toks[code[end]].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        end += 1;
                    }
                    let hi = if end < code.len() { code[end] } else { toks.len() - 1 };
                    for slot in &mut masked[code[ci]..=hi] {
                        *slot = true;
                    }
                    ci = end + 1;
                    continue;
                }
            }
        }
        ci += 1;
    }
    masked
}

/// `# [ cfg ( test ) ]` at code-token position `ci`?
fn is_cfg_test_at(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    let t = |k: usize| -> Option<&Tok> { code.get(ci + k).map(|&i| &toks[i]) };
    t(0).is_some_and(|t| t.is_punct('#'))
        && t(1).is_some_and(|t| t.is_punct('['))
        && t(2).is_some_and(|t| t.is_ident("cfg"))
        && t(3).is_some_and(|t| t.is_punct('('))
        && t(4).is_some_and(|t| t.is_ident("test"))
        && t(5).is_some_and(|t| t.is_punct(')'))
        && t(6).is_some_and(|t| t.is_punct(']'))
}

/// Skip one `#[...]` attribute starting at code index `ci` (at the `#`);
/// returns the code index just past its closing `]`.
fn skip_attribute(toks: &[Tok], code: &[usize], ci: usize) -> usize {
    let mut j = ci + 1; // at `[`
    let mut depth = 0i32;
    while j < code.len() {
        if toks[code[j]].is_punct('[') {
            depth += 1;
        } else if toks[code[j]].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Index of the matching close paren for the open paren at code index
/// `open` (indices into `code`, which maps to token indices). Returns
/// `code.len()` when unbalanced.
pub(crate) fn match_paren(toks: &[Tok], code: &[usize], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < code.len() {
        if toks[code[j]].is_punct('(') {
            depth += 1;
        } else if toks[code[j]].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len()
}

/// Shared context handed to each pass: tokens, the comment-free code index,
/// the test mask, and the file's scope.
pub struct PassCtx<'a> {
    /// All tokens, comments included.
    pub toks: &'a [Tok],
    /// Indices of non-comment tokens, in order — the "code view".
    pub code: Vec<usize>,
    /// Per-token test-region mask.
    pub masked: Vec<bool>,
    /// File scoping.
    pub file: &'a FileCtx,
}

impl<'a> PassCtx<'a> {
    /// Build the pass context for one file.
    pub fn new(toks: &'a [Tok], file: &'a FileCtx) -> Self {
        let code = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let masked = test_mask(toks);
        PassCtx { toks, code, masked, file }
    }

    /// The token at code index `ci`.
    pub fn tok(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    /// Is the code token at `ci` inside a `#[cfg(test)]` region?
    pub fn is_masked(&self, ci: usize) -> bool {
        self.masked[self.code[ci]]
    }

    /// Build a finding anchored at code token `ci`.
    pub fn finding(&self, lint: LintId, ci: usize, message: String) -> Finding {
        let t = self.tok(ci);
        Finding { lint, path: self.file.rel_path.clone(), line: t.line, col: t.col, message }
    }
}

/// Run every requested lint over one file's tokens.
pub fn run_passes(ctx: &PassCtx<'_>, lints: &[LintId], out: &mut Vec<Finding>) {
    for &lint in lints {
        match lint {
            LintId::D1 => determinism::d1_hash_collections(ctx, out),
            LintId::D2 => determinism::d2_wall_clock_entropy(ctx, out),
            LintId::D3 => determinism::d3_partial_cmp_unwrap(ctx, out),
            LintId::D4 => determinism::d4_float_sort_tiebreak(ctx, out),
            LintId::C1 => concurrency::c1_ordering_justification(ctx, out),
            LintId::C2 => concurrency::c2_guard_across_blocking(ctx, out),
            LintId::P1 => panics::p1_handler_panics(ctx, out),
            LintId::W1 => {} // W1 is produced by the waiver parser itself
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_is_masked_code_outside_is_not() {
        let src = "\
fn live() { f(); }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { HashMap::new(); }\n\
}\n\
fn also_live() { g(); }\n";
        let toks = lex(src);
        let masked = test_mask(&toks);
        // The attribute itself (line 2) through the closing brace (line 5)
        // is masked; surrounding code is not.
        for (t, m) in toks.iter().zip(&masked) {
            let expect = (2..=5).contains(&t.line);
            assert_eq!(*m, expect, "line {} tok {:?}", t.line, t.text);
        }
    }

    #[test]
    fn stacked_attributes_before_mod_still_mask() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\nfn live() {}\n";
        let toks = lex(src);
        let masked = test_mask(&toks);
        let live = toks.iter().zip(&masked).find(|(t, _)| t.is_ident("live")).unwrap();
        assert!(!live.1);
        let inner = toks.iter().zip(&masked).find(|(t, _)| t.is_ident("t")).unwrap();
        assert!(inner.1);
    }
}
