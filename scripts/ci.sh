#!/bin/sh
# CI entry point: build, run the full test suite, then smoke the chaos
# soak at its fixed seed (UKRAFT_FAST shrinks the workloads; the run is
# deterministic, so any numeric drift is a real regression).
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
python3 scripts/check_tests.py
dune runtest

echo "== chaos smoke (fixed seed, fast workloads) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only chaos
grep -q '"fleet_zero_lost": true' BENCH_chaos.json || {
  echo "FAIL: fleet chaos drill lost responses (kill 20% mid-spike must lose none)"
  exit 1
}

echo "== fleet smoke (fixed seed, fast workloads) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only fleet
clone_p99=$(awk -F': ' '/"spike_clone_p99_us"/ { sub(/,$/, "", $2); print $2 }' BENCH_fleet.json)
cold_p99=$(awk -F': ' '/"spike_cold_p99_us"/ { sub(/,$/, "", $2); print $2 }' BENCH_fleet.json)
echo "spike p99: snapshot-clone ${clone_p99}us vs cold-boot ${cold_p99}us (gate: clone < cold)"
awk "BEGIN { exit !(${clone_p99} < ${cold_p99}) }" || {
  echo "FAIL: snapshot-clone scale-out p99 not better than cold boot"
  exit 1
}
grep -q '"spike_slo_ratio_ge5": true' BENCH_fleet.json || {
  echo "FAIL: unikernel fleet SLO-violation window not >= 5x shorter than Linux-VM baseline"
  exit 1
}
grep -q '"spike_cold_beats_linux": true' BENCH_fleet.json || {
  echo "FAIL: even cold-boot unikernels should beat the Linux-VM baseline"
  exit 1
}
grep -q '"fleet_replay_ok": true' BENCH_fleet.json || {
  echo "FAIL: same-seed fleet replay was not byte-identical"
  exit 1
}

echo "== cluster smoke (fixed seed, fast workloads) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only cluster
grep -q '"zero_lost_responses": true' BENCH_cluster.json || {
  echo "FAIL: partition drill lost responses (kill mid-migration + 60s asym partition must lose none)"
  exit 1
}
mig_p99=$(awk -F': ' '/"migration_p99_us"/ { sub(/,$/, "", $2); print $2 }' BENCH_cluster.json)
kc_p99=$(awk -F': ' '/"kill_clone_p99_us"/ { sub(/,$/, "", $2); print $2 }' BENCH_cluster.json)
echo "failover p99: live migration ${mig_p99}us vs kill+clone ${kc_p99}us (gate: migration < kill+clone)"
awk "BEGIN { exit !(${mig_p99} < ${kc_p99}) }" || {
  echo "FAIL: live migration p99 not better than the kill+clone baseline"
  exit 1
}
grep -q '"hedging_beats_straggler": true' BENCH_cluster.json || {
  echo "FAIL: hedged p99.9 not better than unhedged under a straggler host"
  exit 1
}
grep -q '"planted_detector_fp": true' BENCH_cluster.json || {
  echo "FAIL: planted-bug detector (suspect_phi=0) produced no false positives - suspicion machinery is dead"
  exit 1
}
grep -q '"cluster_replay_ok": true' BENCH_cluster.json || {
  echo "FAIL: same-seed cluster drill replay was not byte-identical"
  exit 1
}

echo "== smp smoke (fixed seed, fast workloads) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only smp
speedup=$(awk -F': ' '/"speedup_4"/ { sub(/,$/, "", $2); print $2 }' BENCH_smp.json)
echo "4-core httpd speedup: ${speedup}x (gate: >= 2)"
awk "BEGIN { exit !(${speedup} >= 2.0) }" || {
  echo "FAIL: 4-core speedup ${speedup} below 2x"
  exit 1
}
grep -q '"determinism_ok": true' BENCH_smp.json || {
  echo "FAIL: same-seed smp replay was not byte-identical"
  exit 1
}
grep -q '"trace_invariant_ok": true' BENCH_smp.json || {
  echo "FAIL: tracing-on replay diverged from tracing-off (uktrace is not invisible)"
  exit 1
}

echo "== compat smoke (fixed seed, fast workloads) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only compat
grep -q '"ladder_ordered": true' BENCH_compat.json || {
  echo "FAIL: specialization ladder not strictly ordered (native < rewritten < compat < linux-vm)"
  exit 1
}
grep -q '"zero_enosys_hot_paths": true' BENCH_compat.json || {
  echo "FAIL: ENOSYS leaked onto a hot path (nginx/redis traces must be fully handled)"
  exit 1
}
grep -q '"native_5x_cheaper_boundary": true' BENCH_compat.json || {
  echo "FAIL: native syscall boundary not >= 5x cheaper than the Linux-VM boundary"
  exit 1
}
grep -q '"replay_deterministic": true' BENCH_compat.json || {
  echo "FAIL: same-seed compat trace replay was not byte-identical"
  exit 1
}

echo "== fast-path ablation smoke (fixed seed, steady-state workloads) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only abl-fastpath
h_speedup=$(awk -F': ' '/"fastpath_httpd_speedup"/ { sub(/,$/, "", $2); print $2 }' BENCH_ablation.json)
r_speedup=$(awk -F': ' '/"fastpath_resp_speedup"/ { sub(/,$/, "", $2); print $2 }' BENCH_ablation.json)
echo "fast path over socket/copy path: httpd ${h_speedup}x, RESP ${r_speedup}x (gate: >= 5)"
awk "BEGIN { exit !(${h_speedup} >= 5.0 && ${r_speedup} >= 5.0) }" || {
  echo "FAIL: zero-copy fast path not >= 5x over the socket/copy path"
  exit 1
}
h_copies=$(awk -F': ' '/"fastpath_httpd_hot_copies"/ { sub(/,$/, "", $2); print $2 }' BENCH_ablation.json)
r_copies=$(awk -F': ' '/"fastpath_resp_copies"/ { sub(/,$/, "", $2); print $2 }' BENCH_ablation.json)
echo "counted copies: httpd hot path ${h_copies}, RESP fast run ${r_copies} (gate: both 0)"
awk "BEGIN { exit !(${h_copies} == 0) }" || {
  echo "FAIL: httpd hot path made counted memcpys (steady state must be copy-free)"
  exit 1
}
awk "BEGIN { exit !(${r_copies} == 0) }" || {
  echo "FAIL: RESP fast run made counted memcpys (must be copy-free end to end)"
  exit 1
}
grep -q '"fastpath_replay_ok": true' BENCH_ablation.json || {
  echo "FAIL: same-seed 8-core fast-path run was not byte-identical"
  exit 1
}

echo "== inference smoke (fixed seed, fast workloads) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only infer
grep -q '"clone_beats_cold_le128": true' BENCH_infer.json || {
  echo "FAIL: snapshot clone must beat cold boot for models up to 128 MB"
  exit 1
}
crossover=$(awk -F': ' '/"crossover_mb"/ { sub(/,$/, "", $2); print $2 }' BENCH_infer.json)
echo "clone/cold crossover at ${crossover} MB of weights (gate: in (128, 512])"
awk "BEGIN { exit !(${crossover} > 128 && ${crossover} <= 512) }" || {
  echo "FAIL: clone-vs-cold crossover outside (128, 512] MB — boot economics drifted"
  exit 1
}
infer_lost=$(awk -F': ' '/"infer_spike_lost"/ { sub(/,$/, "", $2); print $2 }' BENCH_infer.json)
awk "BEGIN { exit !(${infer_lost} == 0) }" || {
  echo "FAIL: inference fleet lost responses under the 10x spike"
  exit 1
}
grep -q '"infer_replay_ok": true' BENCH_infer.json || {
  echo "FAIL: same-seed inference fleet run was not byte-identical"
  exit 1
}
grep -q '"batch_amortizes": true' BENCH_infer.json || {
  echo "FAIL: batching did not amortize the weight pass (throughput must rise with max_batch)"
  exit 1
}

echo "== store smoke (crash matrix, durability pricing, seeded replay) =="
UKRAFT_FAST=1 dune exec bench/main.exe -- --only store
grep -q '"recovery_zero_lost_commits": true' BENCH_store.json || {
  echo "FAIL: crash matrix lost a durable commit (or resurrected a torn one)"
  exit 1
}
grep -q '"write_read_mix_priced": true' BENCH_store.json || {
  echo "FAIL: durability pricing inverted — writes must pay the journal, RESP must beat the durable store"
  exit 1
}
grep -q '"store_replay_ok": true' BENCH_store.json || {
  echo "FAIL: same-seed store run did not replay to identical roots + trace"
  exit 1
}
store_lost=$(awk -F': ' '/"store_spike_lost"/ { sub(/,$/, "", $2); print $2 }' BENCH_store.json)
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
sh scripts/bench_diff.sh

echo "== ci ok =="
