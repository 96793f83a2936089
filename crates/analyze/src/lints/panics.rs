//! P-class lints: panic-freedom on the service front end.
//!
//! A panic in a connection-handler thread tears down that client with a
//! useless EOF instead of a `{"ok": false, "reason": …}` reply, and a
//! panic on the driver-owner thread kills the whole service. `server.rs`
//! therefore maps every failure to a stable reason token — the lint keeps
//! the panic paths from creeping back in.

use super::{LintId, PassCtx};
use crate::lexer::TokKind;
use crate::report::Finding;

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// P1 — `unwrap`/`expect`, panicking macros, and slice-index expressions in
/// the service front end — `crates/service/src/server.rs`, the federation
/// layer (`router.rs`, `shard.rs`), and every file under
/// `crates/service/src/reactor/` (outside tests). Request handlers
/// must return protocol errors with stable reason tokens, never unwind;
/// for a reactor thread the stakes are higher still, since one panic
/// tears down every connection that thread owns, not just the caller's.
/// The router and shard owners sit even deeper: a panic in `plan` or the
/// shard loop takes out one shard's whole command queue and its clock,
/// and a panic in shard 0's owner, which runs the drain, kills the drain
/// for every shard at once.
pub fn p1_handler_panics(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    let in_scope = ctx.file.crate_name == "service"
        && (ctx.file.basename() == "server.rs"
            || ctx.file.basename() == "router.rs"
            || ctx.file.basename() == "shard.rs"
            || ctx.file.rel_path.contains("service/src/reactor/"));
    if !in_scope {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.is_masked(ci) {
            continue;
        }
        let t = ctx.tok(ci);
        // `.unwrap()` / `.expect(…)`.
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && ci > 0
            && ctx.tok(ci - 1).is_punct('.')
            && ci + 1 < ctx.code.len()
            && ctx.tok(ci + 1).is_punct('(')
        {
            out.push(ctx.finding(
                LintId::P1,
                ci,
                format!(
                    "`.{}(..)` in the service front end: a panic here kills the connection \
                     (or the driver-owner thread) without a protocol reply; map the failure \
                     to a stable reason token instead",
                    t.text
                ),
            ));
            continue;
        }
        // `panic!(…)` and friends.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && ci + 1 < ctx.code.len()
            && ctx.tok(ci + 1).is_punct('!')
        {
            out.push(ctx.finding(
                LintId::P1,
                ci,
                format!("`{}!` in the service front end: handlers must not unwind", t.text),
            ));
            continue;
        }
        // Slice/array indexing `expr[..]`: an out-of-range index panics.
        // Heuristic: `[` directly after an identifier, `)` or `]` is an
        // index expression (attributes arrive as `# [`, array types as
        // `: [` / `< [`, macros as `! [`).
        if t.is_punct('[') && ci > 0 {
            let prev = ctx.tok(ci - 1);
            let indexes = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexes {
                out.push(
                    ctx.finding(
                        LintId::P1,
                        ci,
                        "index expression in the service front end: out-of-range panics tear the \
                     handler down; use `.get(..)` and map `None` to a reason token"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`in [1, 2]`, `return [..]`, `else [..]`…).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "in" | "return"
            | "else"
            | "match"
            | "if"
            | "while"
            | "loop"
            | "break"
            | "mut"
            | "ref"
            | "move"
            | "box"
            | "as"
    )
}
