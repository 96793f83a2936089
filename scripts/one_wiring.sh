#!/usr/bin/env bash
# CI guard: the two-phase loop has one assembly, the methods one name
# table (DESIGN.md §3.1), dspd one front end (§10.6), the binaries one
# command-line reader (core/src/flags.rs), and the workspace one artifact
# (the snapshot, service/src/codec.rs). Five greps over non-test product
# code — every crates/*/src file outside crates/benchmark,
# cut at its `#[cfg(test)] mod tests`, minus files that are test-only
# modules — and one over the service crate whole, six checks in all. Run
# from the repo root.
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

exit "$fail"
