#!/bin/sh
# Perf-drift check: rerun every bench group in fast mode (UKRAFT_FAST=1)
# and diff each BENCH_<group>.json against the committed baseline in
# bench/baseline/. Runs are virtual-time and seeded, so outside the
# wall-clock "seconds" lines every number is exact: any differing line is
# a real change. Each group prints three counts taken from diff's own
# hunks: added lines (a hunks, e.g. a newly registered source), removed
# lines (d hunks) and moved lines (c hunks: a baseline line that now
# reads differently; the extra lines of an uneven c hunk count as added
# or removed). Any non-zero count is drift: the lines are listed and the
# script exits 1. Beside the counts, each group prints its experiments'
# summed wall-clock "seconds", baseline -> now: host time is shown, never
# gated, since it varies from run to run and machine to machine.
#
# Usage: scripts/bench_diff.sh [DIR]. With DIR, diff the BENCH files of a
# fast-mode run already made there instead of running the bench.
#
# To accept a deliberate change, regenerate the baseline in the same
# commit:  (cd bench/baseline && UKRAFT_FAST=1 ../../_build/default/bench/main.exe)
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if [ $# -ge 1 ]; then
  out=$(cd "$1" && pwd)
else
  out=$tmp
  dune build bench/main.exe
  if ! (cd "$out" && UKRAFT_FAST=1 "$root/_build/default/bench/main.exe" >run.log 2>&1); then
    tail -20 "$out/run.log"
    echo "FAIL: fast-mode bench run exited non-zero"
    exit 1
  fi
fi

echo "== bench diff (fast mode vs bench/baseline) =="

# The summed "seconds" of a BENCH file, to two decimals.
seconds() {
  awk -F'"seconds": ' 'NF > 1 { s += $2 } END { printf "%.2f", s }' "$1"
}

drift=0
for cur in "$out"/BENCH_*.json; do
  f=$(basename "$cur")
  [ -f "bench/baseline/$f" ] || {
    echo "$f: no baseline (new group?)"
    drift=1
  }
done
for base in bench/baseline/BENCH_*.json; do
  f=$(basename "$base")
  group=${f#BENCH_}
  group=${group%.json}
  if [ ! -f "$out/$f" ]; then
    echo "$group: group missing from the run"
    drift=1
    continue
  fi
  grep -v '"seconds":' "$base" >"$tmp/base.txt"
  grep -v '"seconds":' "$out/$f" >"$tmp/cur.txt"
  diff "$tmp/base.txt" "$tmp/cur.txt" >"$tmp/diff.txt" || true
  # One pass over the hunks: tally the three kinds and label each line.
  # A c hunk pairs its first min(old, new) lines as moved; the rest of
  # the longer side is removed (baseline) or added (now).
  report=$(awk -v secs="$(seconds "$base") -> $(seconds "$out/$f")" '
    function flush(   i, m) {
      m = (kind == "c") ? ((old < new) ? old : new) : 0
      moved += m; removed += old - m; added += new - m
      for (i = 1; i <= old; i++) lines = lines "\n  " (i <= m ? "baseline:" : "removed: ") " " o[i]
      for (i = 1; i <= new; i++) lines = lines "\n  " (i <= m ? "now:     " : "added:   ") " " n[i]
      old = 0; new = 0
    }
    /^[0-9]/ { flush(); kind = ($0 ~ /a/) ? "a" : ($0 ~ /d/) ? "d" : "c"; next }
    /^</ { o[++old] = substr($0, 3) }
    /^>/ { n[++new] = substr($0, 3) }
    END {
      flush()
      printf "%d added, %d removed, %d moved lines; seconds %s%s\n",
        added, removed, moved, secs, lines
    }' "$tmp/diff.txt")
  echo "$group: $report"
  if [ -s "$tmp/diff.txt" ]; then drift=1; fi
done

if [ "$drift" -ne 0 ]; then
  echo "FAIL: bench output drifted from bench/baseline (update the baseline in the same change if intended)"
  exit 1
fi
echo "bench diff ok"
