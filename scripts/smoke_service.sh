#!/usr/bin/env bash
# End-to-end smoke test for the online service: boot dspd on an ephemeral
# port, stream jobs over the socket, drain to a snapshot file, and assert
# `dsp verify --snapshot` reports zero rule errors (exit 0). The flow runs
# once on a single shard and once on a 2-shard federation, whose drain
# merges both shards' histories into the one snapshot verified.
#
# Usage: scripts/smoke_service.sh [path-to-release-bin-dir]
# Builds are expected to exist already (cargo build --release --workspace).
set -euo pipefail

BIN=${1:-${CARGO_TARGET_DIR:-target}/release}
root=$(mktemp -d)
DSPD_PID=""
trap '[ -n "$DSPD_PID" ] && kill "$DSPD_PID" 2>/dev/null; rm -rf "$root"' EXIT

smoke() { # shard count
SHARDS=$1
workdir="$root/shards$SHARDS"
mkdir -p "$workdir"

# Ephemeral port (0), fast clock: one 60 s scheduling period ≈ 50 ms wall.
"$BIN/dspd" --cluster uniform:4:1000:2 --period 60 --epoch 5 --time-scale 1200 \
  --shards "$SHARDS" >"$workdir/dspd.log" 2>&1 &
DSPD_PID=$!

# Scrape the bound address from the boot line.
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^dspd listening on //p' "$workdir/dspd.log" | head -n1)
  [ -n "$ADDR" ] && break
  kill -0 "$DSPD_PID" 2>/dev/null || { echo "dspd died on boot:"; cat "$workdir/dspd.log"; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "dspd never reported an address:"; cat "$workdir/dspd.log"; exit 1; }
echo "smoke: dspd on $ADDR, $SHARDS shard(s)"

# A hand-written batch (bare jobs array form)...
cat >"$workdir/jobs.json" <<'EOF'
[{"tasks":[{"size":20000},{"size":20000},{"size":20000}],"edges":[[0,1],[1,2]]},
 {"tasks":[{"size":5000},{"size":5000}],"edges":[[0,1]]}]
EOF
"$BIN/dsp" submit --addr "$ADDR" --file "$workdir/jobs.json"
"$BIN/dsp" status --addr "$ADDR" --job 0
"$BIN/dsp" metrics --addr "$ADDR"

# ...then a generated one a couple of scheduling periods later.
sleep 0.5
"$BIN/dsp" submit --addr "$ADDR" --gen 3 --seed 7
sleep 0.5

# Concurrent-client leg: 8 clients hammer the read lane at once while another
# submit streams in on the write lane. Every client must exit 0 and no reply
# may carry a protocol error token.
CONC_DIR="$workdir/conc"
mkdir -p "$CONC_DIR"
pids=()
for i in $(seq 1 8); do
  (
    for _ in $(seq 1 5); do
      "$BIN/dsp" metrics --addr "$ADDR"
      "$BIN/dsp" status --addr "$ADDR" --job 0
    done
  ) >"$CONC_DIR/client$i.log" 2>&1 &
  pids+=("$!")
done
"$BIN/dsp" submit --addr "$ADDR" --gen 2 --seed 11
for pid in "${pids[@]}"; do
  wait "$pid" || { echo "smoke: concurrent client (pid $pid) failed:"; cat "$CONC_DIR"/client*.log; exit 1; }
done
if grep -qE '"ok": *false|"reason"|"error"' "$CONC_DIR"/client*.log; then
  echo "smoke: protocol error in concurrent replies:"
  grep -E '"ok": *false|"reason"|"error"' "$CONC_DIR"/client*.log
  exit 1
fi
echo "smoke: 8 concurrent clients OK ($(cat "$CONC_DIR"/client*.log | wc -l) reply lines)"

# Graceful drain: runs the simulation dry and writes the final snapshot.
"$BIN/dsp" drain --addr "$ADDR" --out "$workdir/snap.json"
wait "$DSPD_PID"
DSPD_PID=""

# The drained snapshot must pass every verifier rule.
"$BIN/dsp" verify --snapshot "$workdir/snap.json"
echo "smoke: $SHARDS shard(s) OK"
}

smoke 1
smoke 2
echo "service smoke: OK"
