#!/bin/sh
# CI entry point: build, run the full test suite, run every bench group
# once in fast mode (UKRAFT_FAST shrinks the workloads; runs are seeded
# and deterministic, so any numeric drift is a real regression), check
# the gates on that run and diff it against bench/baseline.
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
python3 scripts/check_tests.py
dune runtest

# Every bench group runs once, in fast mode and at fixed seeds; the gates
# below read that run's BENCH_<group>.json files, and the perf-drift
# check at the end diffs the same files against bench/baseline.
echo "== fast-mode bench (every group, fixed seeds) =="
root=$(pwd)
bench=$(mktemp -d)
trap 'rm -rf "$bench"' EXIT
dune build bench/main.exe
if ! (cd "$bench" && UKRAFT_FAST=1 "$root/_build/default/bench/main.exe" >run.log 2>&1); then
  tail -20 "$bench/run.log"
  echo "FAIL: fast-mode bench run exited non-zero"
  exit 1
fi

echo "== chaos gates =="
grep -q '"fleet_zero_lost": true' "$bench/BENCH_chaos.json" || {
  echo "FAIL: fleet chaos drill lost responses (kill 20% mid-spike must lose none)"
  exit 1
}

echo "== fleet gates =="
clone_p99=$(awk -F': ' '/"spike_clone_p99_us"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_fleet.json")
cold_p99=$(awk -F': ' '/"spike_cold_p99_us"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_fleet.json")
echo "spike p99: snapshot-clone ${clone_p99}us vs cold-boot ${cold_p99}us (gate: clone < cold)"
awk "BEGIN { exit !(${clone_p99} < ${cold_p99}) }" || {
  echo "FAIL: snapshot-clone scale-out p99 not better than cold boot"
  exit 1
}
grep -q '"spike_slo_ratio_ge5": true' "$bench/BENCH_fleet.json" || {
  echo "FAIL: unikernel fleet SLO-violation window not >= 5x shorter than Linux-VM baseline"
  exit 1
}
grep -q '"spike_cold_beats_linux": true' "$bench/BENCH_fleet.json" || {
  echo "FAIL: even cold-boot unikernels should beat the Linux-VM baseline"
  exit 1
}
grep -q '"fleet_replay_ok": true' "$bench/BENCH_fleet.json" || {
  echo "FAIL: same-seed fleet replay was not byte-identical"
  exit 1
}

echo "== cluster gates =="
grep -q '"zero_lost_responses": true' "$bench/BENCH_cluster.json" || {
  echo "FAIL: partition drill lost responses (kill mid-migration + 60s asym partition must lose none)"
  exit 1
}
mig_p99=$(awk -F': ' '/"migration_p99_us"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_cluster.json")
kc_p99=$(awk -F': ' '/"kill_clone_p99_us"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_cluster.json")
echo "failover p99: live migration ${mig_p99}us vs kill+clone ${kc_p99}us (gate: migration < kill+clone)"
awk "BEGIN { exit !(${mig_p99} < ${kc_p99}) }" || {
  echo "FAIL: live migration p99 not better than the kill+clone baseline"
  exit 1
}
grep -q '"hedging_beats_straggler": true' "$bench/BENCH_cluster.json" || {
  echo "FAIL: hedged p99.9 not better than unhedged under a straggler host"
  exit 1
}
grep -q '"planted_detector_fp": true' "$bench/BENCH_cluster.json" || {
  echo "FAIL: planted-bug detector (suspect_phi=0) produced no false positives - suspicion machinery is dead"
  exit 1
}
grep -q '"cluster_replay_ok": true' "$bench/BENCH_cluster.json" || {
  echo "FAIL: same-seed cluster drill replay was not byte-identical"
  exit 1
}

echo "== smp gates =="
speedup=$(awk -F': ' '/"speedup_4"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_smp.json")
echo "4-core httpd speedup: ${speedup}x (gate: >= 2)"
awk "BEGIN { exit !(${speedup} >= 2.0) }" || {
  echo "FAIL: 4-core speedup ${speedup} below 2x"
  exit 1
}
grep -q '"determinism_ok": true' "$bench/BENCH_smp.json" || {
  echo "FAIL: same-seed smp replay was not byte-identical"
  exit 1
}
grep -q '"trace_invariant_ok": true' "$bench/BENCH_smp.json" || {
  echo "FAIL: tracing-on replay diverged from tracing-off (uktrace is not invisible)"
  exit 1
}

echo "== compat gates =="
grep -q '"ladder_ordered": true' "$bench/BENCH_compat.json" || {
  echo "FAIL: specialization ladder not strictly ordered (native < rewritten < compat < linux-vm)"
  exit 1
}
grep -q '"zero_enosys_hot_paths": true' "$bench/BENCH_compat.json" || {
  echo "FAIL: ENOSYS leaked onto a hot path (nginx/redis traces must be fully handled)"
  exit 1
}
grep -q '"native_5x_cheaper_boundary": true' "$bench/BENCH_compat.json" || {
  echo "FAIL: native syscall boundary not >= 5x cheaper than the Linux-VM boundary"
  exit 1
}
grep -q '"replay_deterministic": true' "$bench/BENCH_compat.json" || {
  echo "FAIL: same-seed compat trace replay was not byte-identical"
  exit 1
}

echo "== fast-path ablation gates (steady-state workloads) =="
h_speedup=$(awk -F': ' '/"fastpath_httpd_speedup"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_ablation.json")
r_speedup=$(awk -F': ' '/"fastpath_resp_speedup"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_ablation.json")
echo "fast path over socket/copy path: httpd ${h_speedup}x, RESP ${r_speedup}x (gate: >= 5)"
awk "BEGIN { exit !(${h_speedup} >= 5.0 && ${r_speedup} >= 5.0) }" || {
  echo "FAIL: zero-copy fast path not >= 5x over the socket/copy path"
  exit 1
}
h_copies=$(awk -F': ' '/"fastpath_httpd_hot_copies"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_ablation.json")
r_copies=$(awk -F': ' '/"fastpath_resp_copies"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_ablation.json")
echo "counted copies: httpd hot path ${h_copies}, RESP fast run ${r_copies} (gate: both 0)"
awk "BEGIN { exit !(${h_copies} == 0) }" || {
  echo "FAIL: httpd hot path made counted memcpys (steady state must be copy-free)"
  exit 1
}
awk "BEGIN { exit !(${r_copies} == 0) }" || {
  echo "FAIL: RESP fast run made counted memcpys (must be copy-free end to end)"
  exit 1
}
grep -q '"fastpath_replay_ok": true' "$bench/BENCH_ablation.json" || {
  echo "FAIL: same-seed 8-core fast-path run was not byte-identical"
  exit 1
}

echo "== inference gates =="
grep -q '"clone_beats_cold_le128": true' "$bench/BENCH_infer.json" || {
  echo "FAIL: snapshot clone must beat cold boot for models up to 128 MB"
  exit 1
}
crossover=$(awk -F': ' '/"crossover_mb"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_infer.json")
echo "clone/cold crossover at ${crossover} MB of weights (gate: in (128, 512])"
awk "BEGIN { exit !(${crossover} > 128 && ${crossover} <= 512) }" || {
  echo "FAIL: clone-vs-cold crossover outside (128, 512] MB — boot economics drifted"
  exit 1
}
infer_lost=$(awk -F': ' '/"infer_spike_lost"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_infer.json")
awk "BEGIN { exit !(${infer_lost} == 0) }" || {
  echo "FAIL: inference fleet lost responses under the 10x spike"
  exit 1
}
grep -q '"infer_replay_ok": true' "$bench/BENCH_infer.json" || {
  echo "FAIL: same-seed inference fleet run was not byte-identical"
  exit 1
}
grep -q '"batch_amortizes": true' "$bench/BENCH_infer.json" || {
  echo "FAIL: batching did not amortize the weight pass (throughput must rise with max_batch)"
  exit 1
}

echo "== store gates (crash matrix, durability pricing, seeded replay) =="
grep -q '"recovery_zero_lost_commits": true' "$bench/BENCH_store.json" || {
  echo "FAIL: crash matrix lost a durable commit (or resurrected a torn one)"
  exit 1
}
grep -q '"write_read_mix_priced": true' "$bench/BENCH_store.json" || {
  echo "FAIL: durability pricing inverted — writes must pay the journal, RESP must beat the durable store"
  exit 1
}
grep -q '"store_replay_ok": true' "$bench/BENCH_store.json" || {
  echo "FAIL: same-seed store run did not replay to identical roots + trace"
  exit 1
}
store_lost=$(awk -F': ' '/"store_spike_lost"/ { sub(/,$/, "", $2); print $2 }' "$bench/BENCH_store.json")
awk "BEGIN { exit !(${store_lost} == 0) }" || {
  echo "FAIL: store fleet lost responses under the 10x spike"
  exit 1
}

echo "== ukcheck gate (lockset + schedule explorer) =="
# Race detector over the 4-core cluster smoke (any report fails) and the
# schedule explorer over the uklock/Percore fixtures at a 64-schedule
# budget; the gate prints per-fixture schedule counts and exits non-zero
# on any violation, with a replay certificate in the log.
dune exec bin/ukcheck_gate.exe

echo "== observability smoke (tracing on, fast workloads) =="
UKRAFT_FAST=1 UKRAFT_TRACE=1 dune exec bench/main.exe -- --only fig13
python3 scripts/check_trace.py TRACE_fig13.json ukapps uknetstack ukalloc
grep -q '"metrics"' BENCH_perf.json || {
  echo "FAIL: BENCH_perf.json has no metrics section"
  exit 1
}

echo "== perf drift (every fast-mode bench number vs bench/baseline) =="
sh scripts/bench_diff.sh "$bench"

echo "== ci ok =="
