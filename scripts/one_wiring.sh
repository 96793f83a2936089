#!/usr/bin/env bash
# CI guard: the two-phase loop has one assembly, the methods one name
# table (DESIGN.md §3.1), dspd one front end (§10.6), the binaries one
# command-line reader (core/src/flags.rs), and the workspace one artifact
# (the snapshot, service/src/codec.rs) built in four files, and dspd one
# thread kind per role: the shard owners and the reactor pool, every
# experiment one audited run call (core/src/pipeline.rs), the R5
# overhead identities one home (simulator/src/history.rs), the offline
# schedulers one packing loop (sched/src/pack.rs), a plan's finish
# `t^s + l̂/g(k)` one formula (`Assignment::planned_finish`), and every
# parameter one home (its struct's crate, composed by core/src/config.rs).
# Twelve greps over non-test product code — every crates/*/src file outside
# crates/benchmark, cut at its `#[cfg(test)] mod tests`, minus files that
# are test-only modules — and one over the service crate whole, 13 checks
# in all. Run from the repo root.
set -euo pipefail

product() {
    git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' |
        grep -vE '^crates/benchmark/|/tests\.rs$|/priority_equiv\.rs$' |
        while read -r f; do
            awk -v f="$f" '
                prev ~ /^#\[cfg\(test\)\]/ && /^(pub\(crate\) )?mod tests/ { exit }
                { if (NR > 1) print f ":" NR - 1 ":" prev; prev = $0 }
                END { if (prev !~ /^#\[cfg\(test\)\]/) print f ":" NR ":" prev }' "$f"
        done
}

fail=0
check() { # name, offending lines (empty = pass)
    if [ -n "$2" ]; then
        printf 'one-wiring guard failed: %s\n%s\n' "$1" "$2" >&2
        fail=1
    fi
}

src=$(product)

# 1. Only the simulator, the pipeline and the online driver construct a
#    dsp-sim Engine (dsp-lp's branch-and-bound `Engine` is another type).
check "Engine::new( outside crates/simulator, core/src/pipeline.rs, service/src/driver.rs" \
    "$(grep -E '\bEngine::new\(' <<<"$src" |
        grep -vE '^crates/(simulator|lp)/|^crates/core/src/pipeline\.rs:|^crates/service/src/driver\.rs:' || true)"

# 2. Outside dsp-sched, exactly one call site of Scheduler::schedule_onto.
calls=$(grep -E '\.schedule_onto\(' <<<"$src" | grep -v '^crates/sched/' || true)
[ "$(grep -c . <<<"$calls")" = 1 ] && grep -q '^crates/core/src/pipeline\.rs:' <<<"$calls" ||
    check "schedule_onto( must have exactly one caller, in core/src/pipeline.rs" "${calls:-<none>}"

# 3. The method names are spelled in one file.
names='"(dsp-list|dsp-ilp|tetris|tetris-wo-dep|aalo|fifo|random|dsp-wo-pp|amoeba|natjam|srpt)"'
check "quoted method names outside core/src/methods.rs" \
    "$(grep -E "$names" <<<"$src" | grep -v '^crates/core/src/methods\.rs:' || true)"

# 4. The service builds one front end, the reactor: no target-gated code or
#    dependency that could host a second one.
check "target_os in crates/service (dspd has one front end)" \
    "$(grep -rn 'target_os' crates/service/src crates/service/Cargo.toml || true)"

# 5. One command-line reader: outside core/src/flags.rs, no product file
#    walks argv by hand.
walks='argv\.get\(|argv\[i\]|while i < argv\.len\(\)|args\.iter\(\)\.position\('
check "argv walked by hand outside core/src/flags.rs" \
    "$(grep -E "$walks" <<<"$src" | grep -v '^crates/core/src/flags\.rs:' || true)"

# 6. One artifact: exactly one product line writes the `format_version`
#    stamp, the one in codec.rs's `Snapshot::write`.
stamps=$(grep -F 'key("format_version")' <<<"$src" || true)
[ "$(grep -c . <<<"$stamps")" = 1 ] && grep -q '^crates/service/src/codec\.rs:' <<<"$stamps" ||
    check "key(\"format_version\") must be written once, in service/src/codec.rs" "${stamps:-<none>}"

# 7. A `Snapshot { .. }` literal appears in four product files only:
#    `OnlineDriver::snapshot` (driver.rs), `Router::merge_snapshots`
#    (router.rs), the decoder (codec.rs) and `dsp`'s `write_snapshot`,
#    which records a batch run. Struct and impl headers, return types and
#    destructuring patterns are not literals.
check "Snapshot { .. } literal outside service/src/{driver,router,codec}.rs and bench/src/bin/dsp.rs" \
    "$(grep -E '\bSnapshot \{' <<<"$src" |
        grep -vE '(-> |struct |impl |let ([a-z_]+::)*)Snapshot \{' |
        grep -vE '^crates/service/src/(driver|router|codec)\.rs:|^crates/bench/src/bin/dsp\.rs:' || true)"

# 8. The service starts threads in two places: server.rs (one owner per
#    shard, which also keeps the shard's clock and, on shard 0, runs the
#    drain) and reactor/frontend.rs (the event-loop pool).
check "a thread started in crates/service outside server.rs and reactor/frontend.rs" \
    "$(grep -E '^crates/service/src/.*\bthread::(spawn|Builder|scope)\b' <<<"$src" |
        grep -vE '^crates/service/src/(server|reactor/frontend)\.rs:' || true)"

# 9. One run call: `execute(` has exactly one product call site, in
#    core/src/pipeline.rs (`run_audited`, which audits what it runs), so
#    every figure cell, matrix cell and `dsp` run is audited the same way.
#    The definition and comments (the crate doctest) are not call sites.
calls=$(grep -E '\bexecute\(' <<<"$src" | grep -vE '\bfn execute\(|^[^:]+:[0-9]+: *//' || true)
[ "$(grep -c . <<<"$calls")" = 1 ] && grep -q '^crates/core/src/pipeline\.rs:' <<<"$calls" ||
    check "execute( must have exactly one product call site, in core/src/pipeline.rs" "${calls:-<none>}"

# 10. The R5 identities are written once, on the history record: the
#     per-charge products `N (t^r + σ)` appear only in
#     simulator/src/history.rs, which the engine's debug check and
#     `dsp_verify::check_execution` both call.
check "an R5 overhead product outside simulator/src/history.rs" \
    "$(grep -E '\b(recovery_charges|preemptions|preempt_count) as u64\b' <<<"$src" |
        grep -v '^crates/simulator/src/history\.rs:' || true)"

# 11. One packing loop: in dsp-sched, a plan is written only by
#     sched/src/pack.rs (every list scheduler) and by dsp_ilp.rs's
#     read-back of the MILP's answer.
check "a plan written in crates/sched outside pack.rs and dsp_ilp.rs" \
    "$(grep -E '^crates/sched/src/.*(\.assign\(|\.assignments\.push\()' <<<"$src" |
        grep -vE '^crates/sched/src/(pack|dsp_ilp)\.rs:' || true)"

# 12. One planned-finish formula: outside dsp-dag, a task's estimated
#     execution time is priced only by `Assignment::planned_finish`
#     (simulator/src/schedule.rs) and by the MILP's per-slot cost matrix
#     (sched/src/dsp_ilp.rs), which prices candidate slots, not a plan.
check "est_exec_time( outside dag, simulator/src/schedule.rs and sched/src/dsp_ilp.rs" \
    "$(grep -E '\best_exec_time\(' <<<"$src" |
        grep -vE '^crates/dag/|^crates/simulator/src/schedule\.rs:|^crates/sched/src/dsp_ilp\.rs:' || true)"

# 13. One home per parameter: the knobs runs vary are written once, by
#     the crate that defines their struct (dsp-preempt: `DspParams`;
#     dsp-sim: `EngineConfig`), and composed once, by `Params`
#     (core/src/config.rs). Elsewhere no product line builds one, by
#     literal or `::default()`; everything else reads them from a `Params`.
#     Struct and impl headers and return types are not literals. The
#     settings no run varies are constants of the crate that reads them:
#     τ, ε, ω1–ω3 and SRPT's α, β and minimum gain in dsp-preempt, σ and
#     the queue lookahead in dsp-sim, the trace calibration and DAG caps
#     in dsp-trace.
built() { # type-name alternation, defining crate
    grep -E "\b($1)( \{|::default\(\))" <<<"$src" |
        grep -vE "(struct |impl |for |-> )($1) \{" |
        grep -vE "^crates/$2/|^crates/core/src/config\.rs:" || true
}
check "a parameter struct built outside its own crate and core/src/config.rs" \
    "$(built DspParams preempt; built EngineConfig simulator)"

exit "$fail"
