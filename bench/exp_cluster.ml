(* Cluster robustness benchmark: fault-tolerant multi-host serving.

   The fleet experiments show one host scaling; this drill shows a
   cluster of hosts surviving the failures that actually happen in a
   multi-host deployment: crashes, gray freezes, *asymmetric*
   partitions (requests arrive, responses vanish), and hosts dying in
   the middle of a live migration. Headline gates:

   - the full drill — diurnal load, a 60 s (virtual) asymmetric
     partition, and a seeded kill of the migration destination mid-copy
     — ends with zero lost responses (every offered request completes,
     sheds, or expires: nothing vanishes);
   - live migration beats the kill+clone baseline on p99, and neither
     loses a response;
   - hedged requests beat unhedged p99.9 under a straggler host;
   - the planted-bug detector control (suspect_phi = 0) produces false
     positives — proving the suspicion machinery actually fires;
   - the whole drill replays byte-identically from one seed with
     hedging on, the rerun with the tracer on (cluster_replay).

   FAST mode scales the request rates down, never the partition or
   migration windows — shrinking the fault windows would make the drill
   vacuous. *)

open Common
module Host = Ukcluster.Host
module Net = Ukcluster.Netmodel
module Detector = Ukcluster.Detector
module Router = Ukcluster.Router
module Cluster = Ukcluster.Cluster
module Fh = Ukfault.Faulthost

let seed = 0xC1057e5
let sec = Uksim.Units.sec
let ms = Uksim.Units.msec

(* FAST shrinks offered load, not fault windows. *)
let rps r = if Bench.fast then r /. 10.0 else r

let show name (r : Cluster.report) =
  row
    "  %-12s offered %6d  done %6d  shed %4d  expired %4d  lost %d  p99 %8.0fus  p99.9 %8.0fus\n"
    name r.Cluster.offered r.Cluster.completed r.Cluster.shed r.Cluster.expired
    r.Cluster.lost r.Cluster.p99_us r.Cluster.p999_us

(* --- the drill ------------------------------------------------------------- *)

let run_drill () =
  Bench.trial ();
  row "partition drill: diurnal load, 60s asymmetric partition, kill mid-migration\n";
  (* The hosts calibrate their httpd image inside this window, whichever
     groups ran (and calibrated it) before. *)
  Ukfleet.Image.uncache Ukfleet.Image.httpd;
  let c =
    Cluster.create ~seed ~n_hosts:4
      ~router_params:(Router.params ~hedge:true ())
      ()
  in
  let t0 = Cluster.settle_ns c in
  (* Live-migrate host 0's shard to host 1, then kill host 1 while the
     first pre-copy round is still streaming: the migration must abort,
     restart toward a surviving host, and commit. *)
  Cluster.migrate c ~at_ns:(t0 +. sec 20.0) ~src:0 ~dst:1;
  let fh =
    Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
      [
        (t0 +. sec 10.0, Fh.Partition_asym ([ 3 ], [ Cluster.front c ]));
        (t0 +. sec 20.0 +. ms 4.0, Fh.Crash 1);
        (t0 +. sec 25.0, Fh.Recover 1);
        (t0 +. sec 70.0, Fh.Heal ([ 3 ], [ Cluster.front c ]));
      ]
  in
  let r =
    Cluster.run c
      (Ukfleet.Workload.diurnal ~base_rps:(rps 1500.0) ~amplitude:0.6
         ~period_ns:(sec 30.0) ~duration_ns:(sec 90.0))
  in
  show "drill" r;
  row "  detector: %d suspects, %d recovers, %d deads;  migrations %d (aborts %d);  faults applied %d\n"
    r.Cluster.suspects r.Cluster.recovers r.Cluster.deads r.Cluster.migrations
    r.Cluster.migration_aborts (Uktrace.Source.count (Fh.source fh) "applied");
  Bench.emit_i "drill_offered" r.Cluster.offered;
  Bench.emit_i "drill_completed" r.Cluster.completed;
  Bench.emit_i "drill_lost" r.Cluster.lost;
  Bench.emit_i "drill_suspects" r.Cluster.suspects;
  Bench.emit_i "drill_migration_aborts" r.Cluster.migration_aborts;
  Bench.emit_i "drill_migrations" r.Cluster.migrations;
  Bench.gate "zero_lost_responses"
    (r.Cluster.lost = 0 && r.Cluster.migrations >= 1
   && r.Cluster.migration_aborts >= 1 && r.Cluster.suspects >= 1)

(* --- migration vs kill+clone ----------------------------------------------- *)

let failover_cluster () =
  Bench.trial ();
  (* Two hosts, half the traffic on the victim shard, and a deliberately
     sluggish detector: the baseline pays full price for every request
     that keeps hammering a dead host until suspicion lands. *)
  Cluster.create ~seed ~n_hosts:2 ~classes:[| Host.X86; Host.X86 |]
    ~detector_params:(Detector.params ~interval_ns:(ms 15.0) ())
    ()

let run_migration_vs_kill_clone () =
  row "\nshard failover: live migration vs kill+clone baseline\n";
  let load = Ukfleet.Workload.steady ~rps:(rps 4000.0) ~duration_ns:(sec 0.8) in
  let mig =
    let c = failover_cluster () in
    Cluster.migrate c ~at_ns:(Cluster.settle_ns c +. sec 0.3) ~src:0 ~dst:1;
    Cluster.run c load
  in
  show "migrate" mig;
  let kc =
    let c = failover_cluster () in
    Cluster.kill_clone c ~at_ns:(Cluster.settle_ns c +. sec 0.3) ~src:0 ~dst:1;
    Cluster.run c load
  in
  show "kill+clone" kc;
  Bench.emit_f "migration_p99_us" mig.Cluster.p99_us;
  Bench.emit_f "kill_clone_p99_us" kc.Cluster.p99_us;
  Bench.emit_i "migration_lost" mig.Cluster.lost;
  Bench.emit_i "kill_clone_lost" kc.Cluster.lost;
  Bench.gate "migration_beats_kill_clone"
    (mig.Cluster.lost = 0 && kc.Cluster.lost = 0
   && mig.Cluster.p99_us < kc.Cluster.p99_us)

(* --- hedging under a straggler --------------------------------------------- *)

let straggler_cluster ~hedge =
  Bench.trial ();
  let c =
    Cluster.create ~seed ~n_hosts:4
      ~classes:[| Host.X86; Host.X86; Host.X86; Host.Arm |]
      ~router_params:
        (Router.params ~hedge ~hedge_quantile:70.0
           ~hedge_min_ns:(Uksim.Units.usec 100.0) ~attempt_timeout_ns:(ms 8.0) ())
      ()
  in
  (* the ARM host also sits behind a slow WAN hop — the straggler *)
  Net.set_link (Cluster.net c) ~src:(Cluster.front c) ~dst:3 ~latency_ns:(ms 1.5)
    ~gbps:10.0;
  Net.set_link (Cluster.net c) ~src:3 ~dst:(Cluster.front c) ~latency_ns:(ms 1.5)
    ~gbps:10.0;
  c

let run_hedging () =
  row "\ntail hedging: straggler host behind a 1.5ms WAN hop\n";
  let load = Ukfleet.Workload.steady ~rps:(rps 3000.0) ~duration_ns:(sec 1.0) in
  let plain = Cluster.run (straggler_cluster ~hedge:false) load in
  show "no hedge" plain;
  let hedged_c = straggler_cluster ~hedge:true in
  let hedged = Cluster.run hedged_c load in
  show "hedged" hedged;
  row "  hedges %d, wins %d, cancelled %d\n" hedged.Cluster.hedges
    hedged.Cluster.hedge_wins hedged.Cluster.cancelled;
  Bench.emit_f "unhedged_p999_us" plain.Cluster.p999_us;
  Bench.emit_f "hedged_p999_us" hedged.Cluster.p999_us;
  Bench.emit_i "hedge_wins" hedged.Cluster.hedge_wins;
  Bench.gate "hedging_beats_straggler"
    (hedged.Cluster.lost = 0 && plain.Cluster.lost = 0
   && hedged.Cluster.hedge_wins > 0
   && hedged.Cluster.p999_us < plain.Cluster.p999_us)

(* --- planted-bug positive control ------------------------------------------ *)

let run_planted () =
  Bench.trial ();
  row "\nplanted bug: detector with suspect_phi = 0 must cry wolf\n";
  let c =
    Cluster.create ~seed ~n_hosts:2 ~classes:[| Host.X86; Host.X86 |]
      ~detector_params:(Detector.params ~interval_ns:(ms 1.0) ~suspect_phi:0.0 ())
      ()
  in
  let r = Cluster.run c (Ukfleet.Workload.steady ~rps:(rps 1000.0) ~duration_ns:(sec 0.2)) in
  row "  %d false suspicions on a fault-free run (%d rescued by pongs)\n"
    r.Cluster.suspects r.Cluster.recovers;
  Bench.emit_i "planted_suspects" r.Cluster.suspects;
  (* if this stops firing, the suspicion machinery is broken *)
  Bench.gate "planted_detector_fp" (r.Cluster.suspects > 0 && r.Cluster.lost = 0)

(* --- seeded replay --------------------------------------------------------- *)

let replay_drill () =
  Bench.trial ();
  let c =
    Cluster.create ~seed:(seed lxor 0x5eed) ~n_hosts:4
      ~router_params:(Router.params ~hedge:true ())
      ()
  in
  let t0 = Cluster.settle_ns c in
  Cluster.migrate c ~at_ns:(t0 +. ms 120.0) ~src:0 ~dst:1;
  ignore
    (Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
       [
         (t0 +. ms 50.0, Fh.Partition_asym ([ 2 ], [ Cluster.front c ]));
         (t0 +. ms 122.0, Fh.Crash 1);
         (t0 +. ms 200.0, Fh.Recover 1);
         (t0 +. ms 300.0, Fh.Heal ([ 2 ], [ Cluster.front c ]));
       ]);
  Cluster.run c
    (Ukfleet.Workload.diurnal ~base_rps:(rps 1500.0) ~amplitude:0.6
       ~period_ns:(ms 200.0) ~duration_ns:(ms 400.0))

let report_fingerprint
    { Cluster.offered; completed; shed; expired; lost; retries; hedges; hedge_wins; cancelled;
      lost_replies; suspects; recovers; deads; migrations; migration_aborts; mean_us; p50_us;
      p99_us; p999_us; max_us; trace_hash } =
  Bench.
    [
      fp_i "offered" offered; fp_i "completed" completed; fp_i "shed" shed;
      fp_i "expired" expired; fp_i "lost" lost; fp_i "retries" retries; fp_i "hedges" hedges;
      fp_i "hedge_wins" hedge_wins; fp_i "cancelled" cancelled;
      fp_i "lost_replies" lost_replies; fp_i "suspects" suspects; fp_i "recovers" recovers;
      fp_i "deads" deads; fp_i "migrations" migrations;
      fp_i "migration_aborts" migration_aborts; fp_f "mean_us" mean_us; fp_f "p50_us" p50_us;
      fp_f "p99_us" p99_us; fp_f "p999_us" p999_us; fp_f "max_us" max_us;
      fp_i "trace_hash" trace_hash;
    ]

let run_replay () =
  row "\nseeded replay: same seed, same drill => byte-identical trace (hedging on)\n";
  let a = replay_drill () in
  Bench.emit_s "cluster_trace_hash" (Printf.sprintf "%016x" a.Cluster.trace_hash);
  Bench.replay "cluster" ~first:(report_fingerprint a) (fun () ->
      report_fingerprint (replay_drill ()))

let run () =
  Bench.phase "drill" run_drill;
  Bench.phase "failover" run_migration_vs_kill_clone;
  Bench.phase "hedging" run_hedging;
  Bench.phase "planted" run_planted;
  Bench.phase "replay" run_replay

let register () =
  Bench.register ~id:"cluster" ~group:"cluster"
    ~descr:
      "fault-tolerant multi-host serving: partition drill, live migration vs kill+clone, hedging, planted detector"
    run
