#!/usr/bin/env bash
# The counts-equal gate: a refactor or a perf change must leave every
# exact count of the end-to-end benchmark unchanged. Extracts REV into a
# temporary tree, runs the traced benchmark on all three workloads at a
# fixed seed there and in this tree, and diffs their `count` lines.
#
#   bash scripts/counts-equal.sh REV
#
# Exits non-zero when a workload's counts differ or a run fails. The
# temporary tree (under $TMPDIR, default /tmp) is removed on exit; both
# trees build into their own .bench_build/.
set -euo pipefail
rev=${1:?usage: scripts/counts-equal.sh REV}
here=$(cd "$(dirname "$0")/.." && pwd)
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git -C "$here" archive "$rev" | tar -x -C "$base"

counts() {
  bash "$1/perfbench/run.sh" --workload "$2" --seed 1 --seconds 2 --trace 1 \
    | grep '^count '
}

status=0
for w in proxy-arp-k16 microflow-k4 faults-k4; do
  counts "$base" "$w" > "$base/$w.rev"
  counts "$here" "$w" > "$base/$w.here"
  if diff "$base/$w.rev" "$base/$w.here"; then
    echo "$w: all $(wc -l < "$base/$w.here") count lines equal"
  else
    echo "$w: count lines differ (< $rev, > this tree)"
    status=1
  fi
done
exit "$status"
