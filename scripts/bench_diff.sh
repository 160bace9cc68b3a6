#!/bin/sh
# Perf-drift check: rerun every bench group in fast mode (UKRAFT_FAST=1)
# and diff each BENCH_<group>.json against the committed baseline in
# bench/baseline/. Runs are virtual-time and seeded, so outside the
# wall-clock "seconds" lines every number is exact: any moved line is a
# real change. Prints the moved lines per group and exits 1 on drift.
#
# To accept a deliberate change, regenerate the baseline in the same
# commit:  (cd bench/baseline && UKRAFT_FAST=1 ../../_build/default/bench/main.exe)
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

dune build bench/main.exe
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== bench diff (fast mode vs bench/baseline) =="
if ! (cd "$out" && UKRAFT_FAST=1 "$root/_build/default/bench/main.exe" >run.log 2>&1); then
  tail -20 "$out/run.log"
  echo "FAIL: fast-mode bench run exited non-zero"
  exit 1
fi

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
  grep -v '"seconds":' "$base" >"$out/base.txt"
  grep -v '"seconds":' "$out/$f" >"$out/cur.txt"
  moved=$(diff "$out/base.txt" "$out/cur.txt" | grep '^[<>]' || true)
  if [ -z "$moved" ]; then
    echo "$group: 0 moved lines"
  else
    echo "$group: $(printf '%s\n' "$moved" | grep -c '^<') moved lines"
    printf '%s\n' "$moved" | sed 's/^</  baseline:/; s/^>/  now:     /'
    drift=1
  fi
done

if [ "$drift" -ne 0 ]; then
  echo "FAIL: bench output drifted from bench/baseline (update the baseline in the same change if intended)"
  exit 1
fi
echo "bench diff ok"
