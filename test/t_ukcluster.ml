(* Tests for ukcluster: network charges and partitions, host classes
   and crash/freeze lifecycle, phi-accrual detection (including the
   planted-bug control), the router's deadline/retry/hedge/admission
   machinery, live migration with abort-and-restart, the kill+clone
   baseline, seeded replay, a partition drill over 16 seeds, and a
   ukcheck exploration fixture over the detector. The recurring
   invariant: offered = completed + shed + expired — no request stream
   ever observes a lost response. *)

module Net = Ukcluster.Netmodel
module Host = Ukcluster.Host
module Detector = Ukcluster.Detector
module Router = Ukcluster.Router
module Migrate = Ukcluster.Migrate
module Cluster = Ukcluster.Cluster
module Fh = Ukfault.Faulthost

let ms = Uksim.Units.msec
let steady ~dur rps = Ukfleet.Workload.steady ~rps ~duration_ns:(ms dur)

let check_no_lost r =
  Alcotest.(check int) "zero lost responses" 0 r.Cluster.lost

(* --- network model -------------------------------------------------------- *)

let test_net_charges () =
  (* 8 Gbps = 1 byte/ns: easy arithmetic. *)
  let n = Net.create ~latency_ns:1000.0 ~gbps:8.0 ~nodes:2 () in
  (match Net.transfer_ns n ~src:0 ~dst:1 ~bytes:500 with
  | Some d -> Alcotest.(check (float 0.01)) "latency + bytes/bw" 1500.0 d
  | None -> Alcotest.fail "open link dropped a transfer");
  Alcotest.(check (option (float 0.01))) "self-link is free" (Some 0.0)
    (Net.transfer_ns n ~src:1 ~dst:1 ~bytes:1_000_000);
  Alcotest.(check bool) "block reports the cut" true (Net.block n ~src:0 ~dst:1);
  Alcotest.(check bool) "double block is stale" false (Net.block n ~src:0 ~dst:1);
  Alcotest.(check (option (float 0.01))) "blocked link eats bytes" None
    (Net.transfer_ns n ~src:0 ~dst:1 ~bytes:1);
  Alcotest.(check bool) "reverse direction still open" true
    (Net.transfer_ns n ~src:1 ~dst:0 ~bytes:1 <> None);
  Alcotest.(check bool) "unblock restores" true (Net.unblock n ~src:0 ~dst:1);
  Alcotest.(check bool) "restored link carries" true
    (Net.transfer_ns n ~src:0 ~dst:1 ~bytes:1 <> None)

let test_net_partitions () =
  let n = Net.create ~nodes:4 () in
  Net.partition_asym n ~from_:[ 0; 1 ] ~to_:[ 3 ];
  Alcotest.(check bool) "asym: 0 -> 3 cut" false (Net.reachable n ~src:0 ~dst:3);
  Alcotest.(check bool) "asym: 3 -> 0 open" true (Net.reachable n ~src:3 ~dst:0);
  Alcotest.(check bool) "asym: bystander untouched" true (Net.reachable n ~src:2 ~dst:3);
  Net.heal n ~a:[ 0; 1 ] ~b:[ 3 ];
  Alcotest.(check bool) "healed" true (Net.reachable n ~src:0 ~dst:3);
  Net.partition n ~a:[ 0 ] ~b:[ 2; 3 ];
  Alcotest.(check bool) "sym: both directions cut" true
    ((not (Net.reachable n ~src:0 ~dst:2)) && not (Net.reachable n ~src:2 ~dst:0))

(* --- hosts ---------------------------------------------------------------- *)

let test_host_classes () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let x = Host.create ~clock ~engine ~seed:1 ~id:0 ~cls:Host.X86 ~image:Ukfleet.Image.httpd () in
  let a = Host.create ~clock ~engine ~seed:1 ~id:1 ~cls:Host.Arm ~image:Ukfleet.Image.httpd () in
  let svc h = (Ukfleet.Fleet.costs (Host.fleet h)).Ukfleet.Fleet.service_ns in
  Alcotest.(check (float 0.001)) "ARM-class serves at 2x the cost" 2.0 (svc a /. svc x);
  Alcotest.(check (float 0.001)) "capacity halves in step" 2.0
    (Host.capacity_rps x /. Host.capacity_rps a)

let test_host_crash_drops_replies () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let h = Host.create ~clock ~engine ~seed:3 ~id:0 ~cls:Host.X86 ~image:Ukfleet.Image.httpd () in
  let t0 = Host.settle_ns h in
  let at ns f = Uksim.Engine.at engine (Uksim.Clock.cycles_of_ns ns) f in
  let before = ref 0 and after = ref 0 in
  at t0 (fun () ->
      Alcotest.(check bool) "up host accepts" true
        (Host.submit h ~now_ns:t0 ~flow:7 ~on_reply:(fun ~ok:_ -> incr before));
      (* the crash lands while the request is in flight *)
      Alcotest.(check bool) "crash" true (Host.crash h ~now_ns:t0);
      Alcotest.(check bool) "crashed host refuses" false
        (Host.submit h ~now_ns:t0 ~flow:8 ~on_reply:(fun ~ok:_ -> ())));
  at (t0 +. ms 5.0) (fun () ->
      Alcotest.(check bool) "recover" true (Host.recover h ~now_ns:(t0 +. ms 5.0));
      ignore
        (Host.submit h ~now_ns:(t0 +. ms 5.0) ~flow:9 ~on_reply:(fun ~ok:_ -> incr after)));
  Uksim.Engine.run engine;
  Alcotest.(check int) "a crashed life never answers" 0 !before;
  Alcotest.(check int) "the next life does" 1 !after

(* --- detector ------------------------------------------------------------- *)

let fast_detector () = Detector.params ~interval_ns:(ms 1.0) ()

let test_detector_params_guarded () =
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "suspect_phi above the dead threshold" (fun () ->
      Detector.params ~suspect_phi:8.5 ());
  rejects "non-positive interval" (fun () -> Detector.params ~interval_ns:0.0 ());
  ignore (Detector.params ~suspect_phi:8.0 ())

let test_detector_quiet_when_healthy () =
  let c = Cluster.create ~seed:11 ~n_hosts:2
      ~classes:[| Host.X86; Host.X86 |] ~detector_params:(fast_detector ()) () in
  let r = Cluster.run c (steady ~dur:40.0 800.0) in
  check_no_lost r;
  Alcotest.(check bool) "requests flowed" true (r.Cluster.completed > 0);
  Alcotest.(check int) "no false suspicion" 0 r.Cluster.suspects;
  Alcotest.(check int) "no false deaths" 0 r.Cluster.deads

let test_detector_crash_to_dead () =
  let c = Cluster.create ~seed:12 ~n_hosts:3
      ~classes:[| Host.X86; Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ()) () in
  let t0 = Cluster.settle_ns c in
  let fh =
    Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
      [ (t0 +. ms 10.0, Fh.Crash 1) ]
  in
  let r = Cluster.run c (steady ~dur:120.0 1500.0) in
  check_no_lost r;
  Alcotest.(check int) "the crash was applied" 1 (Uktrace.Source.count (Fh.source fh) "applied");
  Alcotest.(check bool) "crash suspected" true (r.Cluster.suspects >= 1);
  Alcotest.(check bool) "then declared dead" true (r.Cluster.deads >= 1);
  Alcotest.(check bool) "dead is sticky" true
    (Detector.status (Cluster.detector c) 1 = Detector.Dead);
  Alcotest.(check bool) "shard collected, traffic rerouted" true
    (r.Cluster.completed > 0 && Router.collected (Cluster.router c) 1)

let test_detector_planted_bug () =
  (* The positive control: suspect_phi = 0 must flag live, reachable
     hosts. A detector change that stops this firing is broken. *)
  let c = Cluster.create ~seed:13 ~n_hosts:2
      ~classes:[| Host.X86; Host.X86 |]
      ~detector_params:(Detector.params ~interval_ns:(ms 1.0) ~suspect_phi:0.0 ()) () in
  let r = Cluster.run c (steady ~dur:30.0 500.0) in
  check_no_lost r;
  Alcotest.(check bool) "false positives on live hosts" true (r.Cluster.suspects > 0);
  Alcotest.(check bool) "pongs keep rescuing them" true (r.Cluster.recovers > 0);
  Alcotest.(check int) "but nobody is declared dead" 0 r.Cluster.deads

let test_freeze_suspect_recover () =
  let c = Cluster.create ~seed:14 ~n_hosts:2
      ~classes:[| Host.X86; Host.X86 |] ~detector_params:(fast_detector ()) () in
  let t0 = Cluster.settle_ns c in
  ignore
    (Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
       [ (t0 +. ms 10.0, Fh.Freeze (0, ms 10.0)) ]);
  let r = Cluster.run c (steady ~dur:80.0 800.0) in
  check_no_lost r;
  Alcotest.(check bool) "gray failure suspected" true (r.Cluster.suspects >= 1);
  Alcotest.(check bool) "thaw recovers it" true (r.Cluster.recovers >= 1);
  Alcotest.(check int) "freeze is not death" 0 r.Cluster.deads;
  Alcotest.(check bool) "host is back" true (Host.up (Cluster.host c 0))

(* --- router --------------------------------------------------------------- *)

let test_full_partition_expires_not_loses () =
  let c = Cluster.create ~seed:21 ~n_hosts:2
      ~classes:[| Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ())
      ~router_params:(Router.params ~deadline_ns:(ms 8.0) ()) () in
  (* the front is cut off from every host for the whole run *)
  Net.partition (Cluster.net c) ~a:[ Cluster.front c ] ~b:[ 0; 1 ];
  let r = Cluster.run c (steady ~dur:20.0 400.0) in
  check_no_lost r;
  Alcotest.(check int) "nothing completes across a full partition" 0 r.Cluster.completed;
  Alcotest.(check bool) "deadlines resolve the rest" true
    (r.Cluster.expired > 0 && r.Cluster.expired + r.Cluster.shed = r.Cluster.offered)

let test_asym_partition_detected_and_survived () =
  let c = Cluster.create ~seed:22 ~n_hosts:4
      ~classes:[| Host.X86; Host.X86; Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ()) () in
  let t0 = Cluster.settle_ns c in
  (* host 0 receives requests but its responses vanish: the asymmetric
     case a naive connect-probe would never catch *)
  ignore
    (Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
       [
         (t0 +. ms 5.0, Fh.Partition_asym ([ 0 ], [ Cluster.front c ]));
         (t0 +. ms 65.0, Fh.Heal ([ 0 ], [ Cluster.front c ]));
       ]);
  let r = Cluster.run c (steady ~dur:100.0 2000.0) in
  check_no_lost r;
  Alcotest.(check bool) "responses were eaten" true (r.Cluster.lost_replies > 0);
  Alcotest.(check bool) "pong starvation suspected the host" true (r.Cluster.suspects >= 1);
  Alcotest.(check bool) "the cluster kept serving" true
    (r.Cluster.completed > r.Cluster.offered * 8 / 10)

let test_retries_reroute_after_crash () =
  let c = Cluster.create ~seed:23 ~n_hosts:3
      ~classes:[| Host.X86; Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ())
      ~router_params:(Router.params ~attempt_timeout_ns:(ms 2.0) ()) () in
  let t0 = Cluster.settle_ns c in
  ignore
    (Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
       [ (t0 +. ms 10.0, Fh.Crash 2) ]);
  let r = Cluster.run c (steady ~dur:60.0 1500.0) in
  check_no_lost r;
  Alcotest.(check bool) "retries rerouted stranded attempts" true (r.Cluster.retries > 0);
  Alcotest.(check bool) "almost everything still completed" true
    (r.Cluster.completed > r.Cluster.offered * 8 / 10)

let test_admission_degrades_with_suspicion () =
  let c = Cluster.create ~seed:24 ~n_hosts:4
      ~classes:[| Host.X86; Host.X86; Host.X86; Host.X86 |]
      ~router_params:(Router.params ~deadline_ns:(ms 2.0) ()) () in
  let router = Cluster.router c in
  Router.suspect_host router 0;
  Router.suspect_host router 1;
  Router.suspect_host router 2;
  (* the admission window now covers one host's capacity, not four *)
  let cap3 = Host.capacity_rps (Cluster.host c 3) in
  let degraded_max = max 8 (int_of_float (2.0 *. cap3 *. ms 2.0 /. 1e9)) in
  let burst = (4 * degraded_max) + 50 in
  let t0 = Cluster.settle_ns c in
  let outcomes = Hashtbl.create 4 in
  Uksim.Engine.at (Cluster.engine c) (Uksim.Clock.cycles_of_ns t0) (fun () ->
      for i = 1 to burst do
        Router.offer router ~now_ns:t0 ~flow:i ~on_done:(fun o ~latency_ns:_ ->
            Hashtbl.replace outcomes o (1 + Option.value (Hashtbl.find_opt outcomes o) ~default:0))
      done);
  Uksim.Engine.run (Cluster.engine c);
  let count o = Option.value (Hashtbl.find_opt outcomes o) ~default:0 in
  Alcotest.(check int) "every offer resolved" burst
    (count Router.Completed + count Router.Shed + count Router.Expired);
  Alcotest.(check bool) "overload shed, not queued to death" true
    (count Router.Shed > 0);
  Alcotest.(check bool) "admitted load bounded by believed capacity" true
    (burst - count Router.Shed <= degraded_max)

let test_hedging_wins_against_straggler () =
  let c = Cluster.create ~seed:25 ~n_hosts:4
      ~classes:[| Host.X86; Host.X86; Host.X86; Host.Arm |]
      ~router_params:
        (Router.params ~hedge:true ~hedge_quantile:70.0
           ~hedge_min_ns:(Uksim.Units.usec 100.0) ~attempt_timeout_ns:(ms 4.0) ())
      () in
  (* host 3 sits behind a slow WAN hop: every request it serves pays
     ~3 ms round trip, far past the healthy hosts' p70 *)
  Net.set_link (Cluster.net c) ~src:(Cluster.front c) ~dst:3
    ~latency_ns:(ms 1.5) ~gbps:10.0;
  Net.set_link (Cluster.net c) ~src:3 ~dst:(Cluster.front c)
    ~latency_ns:(ms 1.5) ~gbps:10.0;
  let r = Cluster.run c (steady ~dur:80.0 3000.0) in
  check_no_lost r;
  Alcotest.(check bool) "hedges fired" true (r.Cluster.hedges > 0);
  Alcotest.(check bool) "some hedges beat the straggler" true (r.Cluster.hedge_wins > 0);
  Alcotest.(check bool) "losers were cancelled, not lost" true
    (r.Cluster.cancelled > 0)

(* --- migration ------------------------------------------------------------ *)

let test_migration_live () =
  let c = Cluster.create ~seed:31 ~n_hosts:3
      ~classes:[| Host.X86; Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ()) () in
  let t0 = Cluster.settle_ns c in
  Cluster.migrate c ~at_ns:(t0 +. ms 10.0) ~src:0 ~dst:1;
  let r = Cluster.run c (steady ~dur:80.0 1500.0) in
  check_no_lost r;
  Alcotest.(check int) "one migration committed" 1 r.Cluster.migrations;
  Alcotest.(check int) "no aborts on the happy path" 0 r.Cluster.migration_aborts;
  Alcotest.(check int) "the shard moved" 1 (Router.host_of_slot (Cluster.router c) 0);
  Alcotest.(check bool) "blackout was bounded" true
    (Cluster.last_pause_ns c > 0.0 && Cluster.last_pause_ns c < ms 5.0)

let test_migration_aborts_when_dst_dies () =
  let c = Cluster.create ~seed:32 ~n_hosts:3
      ~classes:[| Host.X86; Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ()) () in
  let t0 = Cluster.settle_ns c in
  Cluster.migrate c ~at_ns:(t0 +. ms 5.0) ~src:0 ~dst:1;
  (* the destination dies inside the first pre-copy round *)
  ignore
    (Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
       [ (t0 +. ms 7.0, Fh.Crash 1) ]);
  let r = Cluster.run c (steady ~dur:120.0 1200.0) in
  check_no_lost r;
  Alcotest.(check bool) "the copy aborted" true (r.Cluster.migration_aborts >= 1);
  Alcotest.(check int) "and restarted to a live host" 1 r.Cluster.migrations;
  Alcotest.(check int) "landing on the survivor" 2
    (Router.host_of_slot (Cluster.router c) 0)

let test_migration_aborts_on_partition () =
  let c = Cluster.create ~seed:33 ~n_hosts:3
      ~classes:[| Host.X86; Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ()) () in
  let t0 = Cluster.settle_ns c in
  Cluster.migrate c ~at_ns:(t0 +. ms 5.0) ~src:0 ~dst:1;
  ignore
    (Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
       [ (t0 +. ms 7.0, Fh.Partition ([ 0 ], [ 1 ])) ]);
  let r = Cluster.run c (steady ~dur:120.0 1200.0) in
  check_no_lost r;
  Alcotest.(check bool) "src/dst split aborts the copy" true
    (r.Cluster.migration_aborts >= 1);
  Alcotest.(check int) "restart found a reachable destination" 1 r.Cluster.migrations;
  Alcotest.(check int) "shard landed off the cut" 2
    (Router.host_of_slot (Cluster.router c) 0)

let test_kill_clone_baseline () =
  let c = Cluster.create ~seed:34 ~n_hosts:3
      ~classes:[| Host.X86; Host.X86; Host.X86 |]
      ~detector_params:(fast_detector ()) () in
  let t0 = Cluster.settle_ns c in
  Cluster.kill_clone c ~at_ns:(t0 +. ms 10.0) ~src:0 ~dst:1;
  let r = Cluster.run c (steady ~dur:80.0 1200.0) in
  check_no_lost r;
  Alcotest.(check bool) "source is gone" true
    (Host.state (Cluster.host c 0) = Host.Crashed);
  Alcotest.(check int) "shard cloned to the destination" 1
    (Router.host_of_slot (Cluster.router c) 0);
  Alcotest.(check bool) "service continued" true (r.Cluster.completed > 0)

(* --- heavy image ----------------------------------------------------------- *)

let test_infer_image_served_across_hosts () =
  (* The serving tier is app-agnostic: an inference image (heavier boot,
     weight-pass service times) routes, completes and stays lossless
     exactly like the httpd default. *)
  let img = Ukfleet.Image.infer ~size_mb:8 () in
  let c = Cluster.create ~seed:19 ~n_hosts:3 ~image:img
      ~classes:[| Host.X86; Host.X86; Host.X86 |] () in
  let r = Cluster.run c (steady ~dur:80.0 800.0) in
  check_no_lost r;
  Alcotest.(check bool) "requests completed" true (r.Cluster.completed > 0);
  Alcotest.(check int) "offered conserves" r.Cluster.offered
    (r.Cluster.completed + r.Cluster.shed + r.Cluster.expired);
  Ukfleet.Image.uncache img

(* --- replay --------------------------------------------------------------- *)

(* A kill-mid-migration partition drill: host 1's replies are cut for
   20 ms, shard 0 migrates to host 3 meanwhile, then host 2 crashes. *)
let drill_cluster seed =
  let c = Cluster.create ~seed ~n_hosts:4
      ~detector_params:(fast_detector ())
      ~router_params:(Router.params ~hedge:true ()) () in
  let t0 = Cluster.settle_ns c in
  ignore
    (Fh.arm ~clock:(Cluster.clock c) ~engine:(Cluster.engine c) ~ops:(Cluster.ops c)
       [
         (t0 +. ms 10.0, Fh.Partition_asym ([ 1 ], [ Cluster.front c ]));
         (t0 +. ms 30.0, Fh.Heal ([ 1 ], [ Cluster.front c ]));
         (t0 +. ms 40.0, Fh.Crash 2);
       ]);
  Cluster.migrate c ~at_ns:(t0 +. ms 20.0) ~src:0 ~dst:3;
  let r =
    Cluster.run c
      (Ukfleet.Workload.diurnal ~base_rps:1200.0 ~amplitude:0.6 ~period_ns:(ms 40.0)
         ~duration_ns:(ms 80.0))
  in
  (c, r)

let drill seed = snd (drill_cluster seed)

let test_replay_determinism () =
  let a = drill 77 and b = drill 77 in
  Alcotest.(check bool) "same seed, byte-identical drill" true (a = b);
  Alcotest.(check int) "and still zero lost" 0 a.Cluster.lost;
  let cdiff = drill 78 in
  Alcotest.(check bool) "different seed, different trace" true
    (cdiff.Cluster.trace_hash <> a.Cluster.trace_hash)

let test_drill_zero_lost_over_seeds () =
  for seed = 1 to 16 do
    let c, r = drill_cluster seed in
    let tag = Printf.sprintf "seed %d: " seed in
    Alcotest.(check bool) (tag ^ "requests completed") true (r.Cluster.completed > 0);
    Alcotest.(check int) (tag ^ "zero lost responses") 0 r.Cluster.lost;
    Alcotest.(check int) (tag ^ "offered = completed + shed + expired") r.Cluster.offered
      (r.Cluster.completed + r.Cluster.shed + r.Cluster.expired);
    (* The counts outlive a registry reset: [lost] is computed from them. *)
    Uktrace.Registry.reset ();
    let routed = Uktrace.Source.count (Router.source (Cluster.router c)) in
    let detected = Uktrace.Source.count (Detector.source (Cluster.detector c)) in
    List.iter
      (fun (name, got) -> Alcotest.(check int) (tag ^ name) (routed name) got)
      [
        ("offered", r.Cluster.offered);
        ("completed", r.Cluster.completed);
        ("shed", r.Cluster.shed);
        ("expired", r.Cluster.expired);
        ("retries", r.Cluster.retries);
        ("hedges", r.Cluster.hedges);
        ("hedge_wins", r.Cluster.hedge_wins);
        ("cancelled", r.Cluster.cancelled);
        ("lost_replies", r.Cluster.lost_replies);
      ];
    List.iter
      (fun (name, got) -> Alcotest.(check int) (tag ^ name) (detected name) got)
      [
        ("suspects", r.Cluster.suspects);
        ("recovers", r.Cluster.recovers);
        ("deads", r.Cluster.deads);
      ];
    Uktrace.Registry.clear ()
  done

(* --- ukcheck: schedule exploration over the detector ----------------------- *)

let detector_fixture smp ~seed =
  let clock = Uksmp.Smp.clock_of smp ~core:0 in
  let engine = Uksmp.Smp.engine_of smp ~core:0 in
  let net = Net.create ~nodes:3 () in
  let horizon = ms 30.0 in
  let d =
    Detector.create ~clock ~engine
      ~rng:(Uksim.Rng.create (seed lxor 0xdead))
      ~net ~front:2 ~hosts:[ 0; 1 ]
      ~params:(Detector.params ~interval_ns:(ms 1.0) ())
      ~probe:(fun _ -> true)
      ~running:(fun () -> Uksim.Clock.ns clock < horizon)
      ()
  in
  Detector.start d;
  (* competing work on both cores gives the explorer its choice points *)
  for core = 0 to 1 do
    ignore (Uksched.Sched.spawn (Uksmp.Smp.sched_of smp ~core) (fun () -> ()))
  done;
  fun () ->
    Ukcheck.Prop.all
      [
        Ukcheck.Prop.require
          (Uktrace.Source.count (Detector.source d) "deads" = 0)
          "live reachable host declared dead";
        Ukcheck.Prop.require
          (Detector.status d 0 <> Detector.Dead && Detector.status d 1 <> Detector.Dead)
          "sticky dead on a healthy host";
      ]

let test_explore_detector_never_buries_the_living () =
  Ukcheck.Prop.check ~cores:2 ~schedules:24 ~seeds:[ 1; 2 ]
    ~name:"no schedule buries a live, reachable host" detector_fixture

let suite =
  [
    Alcotest.test_case "netmodel: link charges + blocks" `Quick test_net_charges;
    Alcotest.test_case "netmodel: partitions, asym + heal" `Quick test_net_partitions;
    Alcotest.test_case "host: ARM class costs 2x" `Quick test_host_classes;
    Alcotest.test_case "host: crashed life never answers" `Quick
      test_host_crash_drops_replies;
    Alcotest.test_case "detector: quiet when healthy" `Quick
      test_detector_quiet_when_healthy;
    Alcotest.test_case "detector: crash -> suspect -> dead" `Quick
      test_detector_crash_to_dead;
    Alcotest.test_case "detector: planted bug control" `Quick test_detector_planted_bug;
    Alcotest.test_case "detector: params reject bad input" `Quick
      test_detector_params_guarded;
    Alcotest.test_case "detector: freeze -> suspect -> recover" `Quick
      test_freeze_suspect_recover;
    Alcotest.test_case "router: full partition expires, loses nothing" `Quick
      test_full_partition_expires_not_loses;
    Alcotest.test_case "router: asymmetric partition survived" `Quick
      test_asym_partition_detected_and_survived;
    Alcotest.test_case "router: retries reroute after crash" `Quick
      test_retries_reroute_after_crash;
    Alcotest.test_case "router: admission degrades with suspicion" `Quick
      test_admission_degrades_with_suspicion;
    Alcotest.test_case "router: hedging beats the straggler" `Quick
      test_hedging_wins_against_straggler;
    Alcotest.test_case "migrate: live, bounded blackout" `Quick test_migration_live;
    Alcotest.test_case "migrate: dst death -> abort + restart" `Quick
      test_migration_aborts_when_dst_dies;
    Alcotest.test_case "migrate: partition -> abort + restart" `Quick
      test_migration_aborts_on_partition;
    Alcotest.test_case "kill+clone baseline works" `Quick test_kill_clone_baseline;
    Alcotest.test_case "seeded drill replays byte-identically" `Quick
      test_replay_determinism;
    Alcotest.test_case "partition drill: zero lost over 16 seeds" `Quick
      test_drill_zero_lost_over_seeds;
    Alcotest.test_case "inference image served across hosts" `Quick
      test_infer_image_served_across_hosts;
    Alcotest.test_case "ukcheck: no schedule buries the living" `Quick
      test_explore_detector_never_buries_the_living;
  ]
