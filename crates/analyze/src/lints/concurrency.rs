//! C-class lints: concurrency contracts the compiler cannot check —
//! justified atomic orderings and lock-guard discipline on the service
//! request path. The nightly ThreadSanitizer CI leg backs these
//! dynamically; the lints keep the *source* honest in between.

use super::{LintId, PassCtx};
use crate::lexer::TokKind;
use crate::report::Finding;

/// Atomic ordering variants (`std::sync::atomic::Ordering`). The `cmp`
/// variants (`Less`/`Equal`/`Greater`) never collide with these names, so
/// the token pattern `Ordering :: <variant>` is unambiguous.
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// C1 — every atomic ordering use must carry an adjacent `// ordering:`
/// comment saying *why this ordering is sufficient* (what it synchronizes
/// with, or why no synchronization is needed). Memory orderings are the one
/// place where a wrong relaxation compiles, passes every test on x86, and
/// corrupts state on ARM; the justification comment is the review artifact.
///
/// "Adjacent" = same line, or within the two lines directly above.
pub fn c1_ordering_justification(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    // Last line of every comment *block* (consecutive comment lines) that
    // contains `ordering:` anywhere — a justification may wrap over several
    // `//` lines, and it is the block's end that must sit next to the use.
    let mut justified: Vec<u32> = Vec::new();
    let mut block_end: Option<u32> = None;
    let mut block_justifies = false;
    for t in ctx.toks {
        if t.is_comment() {
            let end = t.line + t.text.matches('\n').count() as u32;
            let contiguous = block_end.is_some_and(|e| t.line <= e + 1);
            if !contiguous && block_justifies {
                justified.push(block_end.unwrap_or(0));
                block_justifies = false;
            }
            if !contiguous {
                block_justifies = false;
            }
            block_justifies |= t.text.to_ascii_lowercase().contains("ordering:");
            block_end = Some(end);
        }
    }
    if block_justifies {
        justified.push(block_end.unwrap_or(0));
    }
    for ci in 0..ctx.code.len() {
        if ctx.is_masked(ci) || !ctx.tok(ci).is_ident("Ordering") {
            continue;
        }
        let variant = match variant_after(ctx, ci) {
            Some(v) => v,
            None => continue,
        };
        let line = ctx.tok(ci).line;
        let ok = justified.iter().any(|&jl| jl == line || (jl < line && line - jl <= 2));
        if !ok {
            out.push(ctx.finding(
                LintId::C1,
                ci,
                format!(
                    "`Ordering::{variant}` without an adjacent `// ordering:` justification \
                     comment (same line or ≤2 lines above) explaining what it synchronizes with"
                ),
            ));
        }
    }
}

fn variant_after(ctx: &PassCtx<'_>, ci: usize) -> Option<&'static str> {
    if ci + 3 < ctx.code.len()
        && ctx.tok(ci + 1).is_punct(':')
        && ctx.tok(ci + 2).is_punct(':')
        && ctx.tok(ci + 3).kind == TokKind::Ident
    {
        let name = ctx.tok(ci + 3).text.as_str();
        return ATOMIC_ORDERINGS.iter().copied().find(|&v| v == name);
    }
    None
}

/// Calls that block the calling thread while a guard would stay live.
const BLOCKING_CALLS: [&str; 10] = [
    "send",
    "recv",
    "recv_timeout",
    "join",
    "accept",
    "read_line",
    "read_to_string",
    "write_all",
    "flush",
    "wait",
];

/// C2 — lock guard held across a blocking call in `crates/service`.
///
/// The request path's whole design (DESIGN.md §10.5) is that readers never
/// wait on writers; a guard held across `send`/`recv`/`join`/socket I/O
/// reintroduces the convoy under load. Heuristic: a `let g = ….lock()` /
/// `.read()` / `.write()` (empty argument list — the I/O traits' `read`/
/// `write` take buffers) starts a guard scope; a blocking call before the
/// scope's closing brace (or an explicit `drop(g)`) is a finding.
pub fn c2_guard_across_blocking(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.file.crate_name != "service" {
        return;
    }
    // Brace depth per code token.
    let mut d = 0i32;
    let depth: Vec<i32> = (0..ctx.code.len())
        .map(|ci| {
            if ctx.tok(ci).is_punct('{') {
                d += 1;
            } else if ctx.tok(ci).is_punct('}') {
                d -= 1;
            }
            d
        })
        .collect();
    for ci in 0..ctx.code.len() {
        if ctx.is_masked(ci) || !ctx.tok(ci).is_ident("let") {
            continue;
        }
        // Binding name: `let [mut] NAME = …`.
        let mut k = ci + 1;
        if k < ctx.code.len() && ctx.tok(k).is_ident("mut") {
            k += 1;
        }
        if k >= ctx.code.len() || ctx.tok(k).kind != TokKind::Ident {
            continue;
        }
        let name = ctx.tok(k).text.clone();
        let let_depth = depth[ci];
        // Scan the initializer to the statement's `;` at the same depth.
        // `.lock()`/`.read()`/`.write()` (empty argument lists — the I/O
        // traits' `read`/`write` take buffers) acquires a guard; a later
        // method call consumes it (`.lock().unwrap().clone()` binds a
        // clone, not a guard) unless it only unwraps the `LockResult`:
        // `unwrap`, `expect`, or `unwrap_or_else(PoisonError::into_inner)`.
        let mut j = k + 1;
        let mut acquires_guard = false;
        while j < ctx.code.len() && !(ctx.tok(j).is_punct(';') && depth[j] == let_depth) {
            if ctx.tok(j).is_punct('.') && j + 2 < ctx.code.len() && ctx.tok(j + 2).is_punct('(') {
                let m = ctx.tok(j + 1);
                if (m.is_ident("lock") || m.is_ident("read") || m.is_ident("write"))
                    && j + 3 < ctx.code.len()
                    && ctx.tok(j + 3).is_punct(')')
                {
                    acquires_guard = true;
                } else if acquires_guard
                    && !["unwrap", "expect", "unwrap_or_else"].iter().any(|u| m.is_ident(u))
                {
                    acquires_guard = false;
                }
            }
            j += 1;
        }
        if !acquires_guard || j >= ctx.code.len() {
            continue;
        }
        // Guard live from the `;` until scope exit or `drop(name)`.
        let mut m = j + 1;
        while m < ctx.code.len() && depth[m] >= let_depth {
            let t = ctx.tok(m);
            if t.is_ident("drop")
                && m + 2 < ctx.code.len()
                && ctx.tok(m + 1).is_punct('(')
                && ctx.tok(m + 2).is_ident(&name)
            {
                break; // explicitly released
            }
            if t.kind == TokKind::Ident
                && BLOCKING_CALLS.contains(&t.text.as_str())
                && m + 1 < ctx.code.len()
                && ctx.tok(m + 1).is_punct('(')
                && m > 0
                && ctx.tok(m - 1).is_punct('.')
            {
                out.push(ctx.finding(
                    LintId::C2,
                    m,
                    format!(
                        "lock guard `{name}` (acquired line {}) is still live across blocking \
                         call `.{}(..)`; clone what you need out of the guard and drop it first",
                        ctx.tok(ci).line,
                        t.text
                    ),
                ));
                break; // one finding per guard is enough
            }
            m += 1;
        }
    }
}
