#!/bin/sh
# CI entry point: build, run the full test suite, check that every
# exported value has a caller and every declared library a user, run
# every bench group once in fast mode (UKRAFT_FAST shrinks the
# workloads; runs are seeded and deterministic, so any numeric drift is
# a real regression), check that each group run alone with --only
# writes the same BENCH file, and diff the full run against
# bench/baseline.
#
# Every pass/fail gate is declared next to its measurement with
# Bench.gate or Bench.replay and lands in the "gates" object of its
# BENCH_<group>.json; the bench exits non-zero, naming each false gate
# and each experiment that raised.
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
python3 scripts/check_tests.py
# --force reruns the suite even when dune has it cached, so the wall
# time and peak RSS printed below are always the suite's own (the peak is
# the largest process of the run, the test binary); both are shown,
# never gated.
python3 - <<'EOF'
import resource, subprocess, sys, time
start = time.monotonic()
rc = subprocess.call(["dune", "runtest", "--force"])
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"tests: {time.monotonic() - start:.1f} s wall clock, {peak_mib:.0f} MiB peak RSS")
sys.exit(rc)
EOF

echo "== callers (every exported value and optional argument in lib has one) =="
python3 scripts/check_callers.py lib/*
# The size of lib/, shown and never gated, so every change reads its
# line count from this one command.
echo "lib: $(cat lib/*/*.ml lib/*/*.mli | wc -l | tr -d ' ') lines (.ml + .mli) in $(ls lib/*/dune | wc -l | tr -d ' ') libraries"

echo "== library edges (every declared library is used) =="
# dune-project sets implicit_transitive_deps false, so the build above
# already rejects a module that uses a library its stanza does not
# declare; @unused-libs lists every declared library that no module of
# the stanza uses, and exits 1 if there is one.
dune build @unused-libs
echo "every (libraries ...) entry is used"

echo "== fast-mode bench (every group, fixed seeds, gates) =="
root=$(pwd)
bench=$(mktemp -d)
trap 'rm -rf "$bench"' EXIT
if ! (cd "$bench" && UKRAFT_FAST=1 "$root/_build/default/bench/main.exe" >run.log 2>&1); then
  tail -20 "$bench/run.log"
  echo "FAIL: fast-mode bench run exited non-zero"
  exit 1
fi
tail -1 "$bench/run.log"

echo "== --only reproduces the full run (every group alone, fast mode) =="
# A window lists its sources in registration order, and an image's
# calibration is cached process-wide, so a group run alone could write
# its BENCH file differently from the full run. Outside "seconds" lines
# each must match the full run's.
for base in bench/baseline/BENCH_*.json; do
  f=$(basename "$base")
  group=${f#BENCH_}
  group=${group%.json}
  mkdir "$bench/only-$group"
  if ! (cd "$bench/only-$group" && UKRAFT_FAST=1 "$root/_build/default/bench/main.exe" --only "$group" >run.log 2>&1); then
    tail -20 "$bench/only-$group/run.log"
    echo "FAIL: --only $group exited non-zero"
    exit 1
  fi
  grep -v '"seconds":' "$bench/$f" >"$bench/full.txt"
  grep -v '"seconds":' "$bench/only-$group/$f" >"$bench/only.txt"
  if ! diff "$bench/full.txt" "$bench/only.txt"; then
    echo "FAIL: --only $group wrote $f differently from the full run"
    exit 1
  fi
done
echo "every group alone matches the full run"

echo "== observability smoke (tracing on, fast workloads) =="
mkdir "$bench/trace"
(cd "$bench/trace" && UKRAFT_FAST=1 UKRAFT_TRACE=1 "$root/_build/default/bench/main.exe" --only fig13)
python3 scripts/check_trace.py "$bench/trace/TRACE_fig13.json" ukapps uknetstack ukalloc
(cd "$bench/trace" && UKRAFT_FAST=1 UKRAFT_TRACE=1 "$root/_build/default/bench/main.exe" --only store)
python3 scripts/check_trace.py "$bench/trace/TRACE_store.json" ukapps uknetstack

echo "== perf drift (every fast-mode bench number vs bench/baseline) =="
sh scripts/bench_diff.sh "$bench"

echo "== ci ok =="
