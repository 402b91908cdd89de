#!/bin/sh
# A bad input file is the user's error, not a rank fault.
#
#   cli_bad_input.sh SFG_CLI WORKDIR
#
# With a flight dump armed (SFG_FLIGHT_DUMP names a fresh, empty
# directory), a 4-rank bfs on a missing file and on a file cut mid-edge
# must each exit 1 with exactly one `sfg_cli: ` line on stderr, and no
# rank may leave a rank-fault dump behind.
set -u
cli=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir/dump"
printf '%01000d' 0 > "$dir/cut.bin"  # 1000 bytes: no whole number of edges

for f in "$dir/missing.bin" "$dir/cut.bin"; do
  SFG_FLIGHT_DUMP="$dir/dump" "$cli" bfs "$f" --ranks 4 \
    > /dev/null 2> "$dir/stderr"
  rc=$?
  test "$rc" -eq 1 || { echo "$f: exit $rc, expected 1" >&2; exit 1; }
  n=$(grep -c '^sfg_cli: ' "$dir/stderr")
  test "$n" -eq 1 || {
    echo "$f: $n 'sfg_cli: ' lines on stderr, expected 1" >&2
    cat "$dir/stderr" >&2
    exit 1
  }
done
if [ -n "$(ls -A "$dir/dump")" ]; then
  echo "a bad input file left a flight dump:" >&2
  ls -l "$dir/dump" >&2
  exit 1
fi
