#!/bin/sh
# Every sfg_obs subcommand on the output of a real run.
#
#   sfg_obs_e2e.sh SFG_CLI SFG_OBS WORKDIR
#
# WORKDIR is wiped first, so only this run can produce what is checked.
# A 4-rank external-memory hybrid BFS runs with the metrics report, the
# span rings and 1 ms time-series sampling live; each traversal ends with
# a forced ts_flush, so every rank leaves a stream regardless of timing.
# The validator must accept the report and every stream, and each view
# must exit 0 and print its header line.
set -eu
cli=$1
obs=$2
dir=$3
rm -rf "$dir"
mkdir -p "$dir/ts"
m=$dir/metrics.json

env -u SFG_METRICS -u SFG_TS_INTERVAL_MS -u SFG_SPANS \
  "$cli" generate --model rmat --scale 8 --seed 5 --out "$dir/g.bin"
env -u SFG_MEM_BUDGET SFG_METRICS="$m" SFG_SPANS=1 SFG_SPAN_EVENTS=65536 \
  SFG_TS_INTERVAL_MS=1 SFG_TS_DIR="$dir/ts" \
  "$cli" bfs "$dir/g.bin" --ranks 4 --bfs=hybrid --em --em-frames 64 --validate

set --
for f in "$dir"/ts/sfg_ts_rank*.jsonl; do set -- "$@" --all "$f"; done
test $# -eq 8 || { echo "expected 4 streams, got $(($# / 2))" >&2; exit 1; }
"$obs" check --all "$m" "$@"
"$obs" check --comm-matrix "$m" --bfs-levels "$m" --critpath "$m" --mem "$m"

# expect PATTERN ARGS...: `sfg_obs ARGS...` exits 0 and prints PATTERN.
expect() {
  pattern=$1
  shift
  out=$("$obs" "$@")
  printf '%s\n' "$out"
  printf '%s\n' "$out" | grep -q -- "$pattern"
}
expect '^sfg_obs top — 4 rank(s)' top --once --dir "$dir/ts"
expect '^sfg_obs heat — .*, traversal 2 of 2, 4 rank(s)$' heat "$m"
expect '^sfg_obs mem — .*, traversal 2 of 2, 4 rank(s)$' mem "$m"
expect '^sfg_obs why — .*, traversal 2 of 2$' why "$m"
expect '"traversal":2,' why --json "$m"
expect '^sfg_obs why — .*, traversal 1 of 2$' why --traversal 1 "$m"

# Past the last traversal is a bad report request (1), not a usage error.
rc=0
"$obs" why --traversal 3 "$m" 2>/dev/null || rc=$?
test "$rc" -eq 1
