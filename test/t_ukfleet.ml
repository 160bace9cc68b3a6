(* Tests for ukfleet: workload shapes, front-door policies, autoscaler
   hysteresis, seeded VM killing, calibrated costs, fleet lifecycle
   (cold / warm-pool / snapshot-clone), crash recovery with zero lost
   responses over many seeds, and per-fleet readings with two fleets
   alive. *)

module Fleet = Ukfleet.Fleet
module Workload = Ukfleet.Workload
module Frontdoor = Ukfleet.Frontdoor
module Autoscaler = Ukfleet.Autoscaler
module Image = Ukfleet.Image
module Fv = Ukfault.Faultvm

let ms = Uksim.Units.msec
let image = Image.httpd

(* --- workload shapes ------------------------------------------------------ *)

let test_workload_shapes () =
  let r = Workload.ramp ~from_rps:100.0 ~to_rps:300.0 ~duration_ns:(ms 10.0) in
  Alcotest.(check (float 0.5)) "ramp start" 100.0 (r.Workload.rate_rps 0.0);
  Alcotest.(check (float 0.5)) "ramp midpoint" 200.0 (r.Workload.rate_rps (ms 5.0));
  Alcotest.(check (float 0.5)) "ramp end" 300.0 (r.Workload.rate_rps (ms 10.0));
  let s =
    Workload.spike ~base_rps:50.0 ~factor:10.0 ~at_ns:(ms 2.0) ~spike_ns:(ms 1.0)
      ~duration_ns:(ms 10.0)
  in
  Alcotest.(check (float 0.5)) "before spike" 50.0 (s.Workload.rate_rps (ms 1.9));
  Alcotest.(check (float 0.5)) "inside spike" 500.0 (s.Workload.rate_rps (ms 2.5));
  Alcotest.(check (float 0.5)) "after spike" 50.0 (s.Workload.rate_rps (ms 3.1));
  let d = Workload.diurnal ~base_rps:100.0 ~amplitude:2.0 ~period_ns:(ms 4.0) ~duration_ns:(ms 8.0) in
  Alcotest.(check bool) "diurnal clamped at zero" true (d.Workload.rate_rps (ms 3.0) >= 0.0)

(* --- front door ----------------------------------------------------------- *)

let no_load _ = 0.0

let test_round_robin_rotates () =
  let fd = Frontdoor.create Frontdoor.Round_robin in
  List.iter (Frontdoor.add fd) [ 1; 2; 3 ];
  let picks = List.init 6 (fun _ -> Option.get (Frontdoor.pick fd ~flow:0 ~load:no_load)) in
  Alcotest.(check (list int)) "rotates over members" [ 1; 2; 3; 1; 2; 3 ] picks

let test_least_loaded_argmin () =
  let fd = Frontdoor.create Frontdoor.Least_loaded in
  List.iter (Frontdoor.add fd) [ 1; 2; 3 ];
  let load = function 1 -> 5.0 | 2 -> 1.0 | _ -> 9.0 in
  Alcotest.(check (option int)) "picks the least-loaded" (Some 2)
    (Frontdoor.pick fd ~flow:0 ~load);
  Alcotest.(check (option int)) "ties break to lowest id" (Some 1)
    (Frontdoor.pick fd ~flow:0 ~load:no_load)

let test_consistent_hash_affinity () =
  let fd = Frontdoor.create Frontdoor.Consistent_hash in
  List.iter (Frontdoor.add fd) [ 1; 2; 3; 4 ];
  let flows = List.init 200 (fun i -> i * 7919) in
  let before = List.map (fun f -> Option.get (Frontdoor.pick fd ~flow:f ~load:no_load)) flows in
  let again = List.map (fun f -> Option.get (Frontdoor.pick fd ~flow:f ~load:no_load)) flows in
  Alcotest.(check (list int)) "same flow, same member" before again;
  Frontdoor.remove fd 2;
  let after = List.map (fun f -> Option.get (Frontdoor.pick fd ~flow:f ~load:no_load)) flows in
  let moved_without_cause =
    List.exists2 (fun b a -> b <> 2 && b <> a) before after
  in
  Alcotest.(check bool) "only the failed member's arc remaps" false moved_without_cause;
  Alcotest.(check bool) "failed member no longer picked" false (List.mem 2 after)

let test_quarantine_keeps_affinity () =
  let fd = Frontdoor.create Frontdoor.Consistent_hash in
  List.iter (Frontdoor.add fd) [ 1; 2; 3; 4 ];
  let flows = List.init 200 (fun i -> i * 7919) in
  let pick f = Option.get (Frontdoor.pick fd ~flow:f ~load:no_load) in
  let before = List.map pick flows in
  Frontdoor.quarantine fd 2;
  let during = List.map pick flows in
  Alcotest.(check bool) "suspect is never picked" false (List.mem 2 during);
  List.iter2
    (fun b d -> if b <> 2 then Alcotest.(check int) "unaffected flows stay put" b d)
    before during;
  Frontdoor.unquarantine fd 2;
  let after = List.map pick flows in
  Alcotest.(check (list int))
    "recovery restores the exact flow -> member mapping" before after

(* --- autoscaler ----------------------------------------------------------- *)

let test_autoscaler_demand_and_hysteresis () =
  let p = { Autoscaler.default with Autoscaler.scale_in_hold = 2 } in
  let a = Autoscaler.create p in
  let decide ~now ~ready ~outstanding =
    Autoscaler.decide a ~now_ns:now ~ready ~warming:0 ~outstanding ~p99_ns:0.0
      ~slo_ns:(ms 1.0)
  in
  (match decide ~now:0.0 ~ready:1 ~outstanding:40 with
  | Autoscaler.Scale_out n -> Alcotest.(check int) "demand-driven scale-out" 9 n
  | _ -> Alcotest.fail "expected scale-out");
  (match decide ~now:(ms 0.5) ~ready:1 ~outstanding:80 with
  | Autoscaler.Hold -> ()
  | _ -> Alcotest.fail "cooldown should hold");
  (* Low demand must persist for scale_in_hold ticks AND the scale-in
     cooldown before one instance is retired. *)
  (match decide ~now:(ms 10.0) ~ready:8 ~outstanding:0 with
  | Autoscaler.Hold -> ()
  | _ -> Alcotest.fail "first low tick holds");
  (match decide ~now:(ms 60.0) ~ready:8 ~outstanding:0 with
  | Autoscaler.Scale_in n -> Alcotest.(check int) "retires one at a time" 1 n
  | _ -> Alcotest.fail "expected scale-in after hold + cooldown")

(* --- the VM killer -------------------------------------------------------- *)

let test_faultvm_victims () =
  let ids = List.init 10 (fun i -> i * 10) in
  let draw () = Fv.victims ~rng:(Uksim.Rng.create 7) ~fraction:0.2 ~min_kills:1 ids in
  let a = draw () and b = draw () in
  Alcotest.(check (list int)) "seeded draw replays" a b;
  Alcotest.(check int) "20% of 10 targets" 2 (List.length a);
  Alcotest.(check bool) "victims are targets" true (List.for_all (fun v -> List.mem v ids) a);
  Alcotest.(check int) "no duplicates" (List.length a)
    (List.length (List.sort_uniq compare a));
  Alcotest.(check int) "min_kills floor" 3
    (List.length (Fv.victims ~rng:(Uksim.Rng.create 7) ~fraction:0.0 ~min_kills:3 ids))

(* --- calibration ---------------------------------------------------------- *)

let test_calibration () =
  let c = Image.calibrate image ~vmm:Ukplat.Vmm.Firecracker in
  Alcotest.(check bool) "service time positive" true (c.Image.service_ns > 0.0);
  Alcotest.(check bool) "boot has constructor phases" true
    (List.length c.Image.boot_report.Ukboot.Boot.phases >= 3);
  Alcotest.(check bool) "guest boot part of total" true
    (c.Image.breakdown.Ukplat.Vmm.total_ns >= c.Image.breakdown.Ukplat.Vmm.guest_ns);
  let again = Image.calibrate image ~vmm:Ukplat.Vmm.Firecracker in
  Alcotest.(check bool) "calibration is cached" true (c == again)

let test_costs_ordering () =
  let f = Fleet.create ~image () in
  let c = Fleet.costs f in
  Alcotest.(check bool) "clone cheaper than cold boot" true
    (c.Fleet.clone_ns < c.Fleet.cold_boot_ns);
  Alcotest.(check bool) "warm activation cheapest" true
    (c.Fleet.warm_activation_ns < c.Fleet.clone_ns)

(* --- fleet lifecycle ------------------------------------------------------ *)

let steady ?(dur = 20.0) mult =
  let cap = 1e9 /. (Fleet.costs (Fleet.create ~image ())).Fleet.service_ns in
  Workload.steady ~rps:(mult *. cap) ~duration_ns:(ms dur)

let test_steady_run_completes () =
  let f = Fleet.create ~image ~initial:2 () in
  let r = Fleet.run f (steady 0.8) in
  Alcotest.(check bool) "requests flowed" true (r.Fleet.offered > 100);
  Alcotest.(check int) "all completed" r.Fleet.offered r.Fleet.completed;
  Alcotest.(check int) "none lost" 0 r.Fleet.lost;
  Alcotest.(check int) "fixed fleet stays at 2" 2 r.Fleet.peak_instances

let test_replay_determinism () =
  let go seed = Fleet.run (Fleet.create ~seed ~boot_mode:Fleet.Snapshot
      ~autoscale:Autoscaler.default ~image ()) (steady 2.5) in
  let a = go 42 and b = go 42 and c = go 43 in
  Alcotest.(check bool) "same seed, identical report" true (a = b);
  Alcotest.(check bool) "different seed, different trace" true
    (a.Fleet.trace_hash <> c.Fleet.trace_hash)

let test_autoscaler_scales_fleet () =
  let f = Fleet.create ~autoscale:Autoscaler.default ~image () in
  let r = Fleet.run f (steady 4.0) in
  Alcotest.(check bool) "scaled beyond initial" true (r.Fleet.peak_instances > 1);
  Alcotest.(check int) "none lost while scaling" 0 r.Fleet.lost

let test_warm_pool_hits () =
  let f = Fleet.create ~boot_mode:(Fleet.Warm_pool 2) ~autoscale:Autoscaler.default ~image () in
  let r = Fleet.run f (steady 3.0) in
  Alcotest.(check bool) "spares were activated" true (r.Fleet.warm_hits > 0);
  Alcotest.(check int) "none lost" 0 r.Fleet.lost

let test_snapshot_clones () =
  let f = Fleet.create ~boot_mode:Fleet.Snapshot ~autoscale:Autoscaler.default ~image () in
  let r = Fleet.run f (steady 3.0) in
  Alcotest.(check int) "exactly one cold template boot" 1 r.Fleet.cold_boots;
  Alcotest.(check bool) "scale-out went through clones" true (r.Fleet.clones > 0);
  Alcotest.(check int) "none lost" 0 r.Fleet.lost

let test_shedding_is_explicit () =
  (* One instance, no autoscaler, tight shed bound, heavy overload: the
     overflow must be shed (answered), never silently dropped. *)
  let f = Fleet.create ~shed_after_ns:(ms 0.5) ~image () in
  let r = Fleet.run f (steady 6.0) in
  Alcotest.(check bool) "overload sheds" true (r.Fleet.shed > 0);
  Alcotest.(check int) "offered = completed + shed" r.Fleet.offered
    (r.Fleet.completed + r.Fleet.shed);
  Alcotest.(check int) "none lost" 0 r.Fleet.lost

(* --- crash recovery ------------------------------------------------------- *)

(* Kill 40% of an autoscaled snapshot fleet 8 ms into a 2x-capacity
   load, then check the books: every kill respawned, nothing lost.
   Returns the kills that landed; a shot misses when its victim was
   scaled in at the same instant. *)
let kill_and_respawn ?(seed = 1) ~fv_seed () =
  let f = Fleet.create ~seed ~boot_mode:Fleet.Snapshot ~autoscale:Autoscaler.default
      ~initial:3 ~image () in
  let fv =
    Fv.arm ~clock:(Fleet.control_clock f) ~engine:(Fleet.control_engine f)
      ~rng:(Uksim.Rng.create fv_seed)
      ~plan:(Fv.plan ~at_ns:(Fleet.settle_ns f +. ms 8.0) ~kill_fraction:0.4 ())
      ~targets:(fun () -> Fleet.ready_ids f)
      ~kill:(fun ~now_ns iid -> Fleet.kill f ~now_ns ~iid)
  in
  let r = Fleet.run f (steady 2.0) in
  let count = Uktrace.Source.count (Fv.source fv) in
  let killed = count "killed" in
  let tag = Printf.sprintf "seed %d, faultvm seed %d: " seed fv_seed in
  Alcotest.(check bool) (tag ^ "the drill fired") true (killed + count "missed" >= 1);
  Alcotest.(check int) (tag ^ "every kill respawned") killed r.Fleet.restarts;
  Alcotest.(check int) (tag ^ "crashes recorded") killed r.Fleet.crashes;
  Alcotest.(check int) (tag ^ "zero lost responses") 0 r.Fleet.lost;
  Alcotest.(check int) (tag ^ "offered all answered") r.Fleet.offered
    (r.Fleet.completed + r.Fleet.shed);
  killed

let test_kill_respawns_zero_lost () =
  Alcotest.(check bool) "instances were killed" true (kill_and_respawn ~fv_seed:7 () >= 1)

let test_kill_respawns_zero_lost_over_seeds () =
  let landed = ref 0 in
  for seed = 1 to 16 do
    if kill_and_respawn ~seed ~fv_seed:(100 + seed) () >= 1 then incr landed;
    Uktrace.Registry.clear ()
  done;
  Alcotest.(check bool) (Printf.sprintf "most drills landed a kill (%d/16)" !landed) true
    (!landed >= 12)

let test_kill_rejects_unknown () =
  let f = Fleet.create ~image () in
  Alcotest.(check bool) "unknown instance" false (Fleet.kill f ~now_ns:0.0 ~iid:99)

(* Two drill rounds land 0.3 ms apart — inside the supervisor's 1 ms
   first backoff window, so the second kill arrives while the first
   victim is still restarting. The epoch guard must keep stale
   completions from the first life out of the books. *)
let test_back_to_back_kills_one_backoff_window () =
  let f = Fleet.create ~boot_mode:Fleet.Snapshot ~autoscale:Autoscaler.default
      ~initial:3 ~image () in
  let fv =
    Fv.arm ~clock:(Fleet.control_clock f) ~engine:(Fleet.control_engine f)
      ~rng:(Uksim.Rng.create 17)
      ~plan:
        (Fv.plan ~at_ns:(Fleet.settle_ns f +. ms 8.0) ~kill_fraction:0.01
           ~min_kills:1 ~repeat_ns:(ms 0.3) ~rounds:2 ())
      ~targets:(fun () -> Fleet.ready_ids f)
      ~kill:(fun ~now_ns iid -> Fleet.kill f ~now_ns ~iid)
  in
  let r = Fleet.run f (steady 2.0) in
  let count = Uktrace.Source.count (Fv.source fv) in
  Alcotest.(check int) "both rounds fired" 2 (count "rounds");
  Alcotest.(check bool) "both kills landed" true (count "killed" >= 2);
  Alcotest.(check int) "every kill respawned exactly once" (count "killed")
    r.Fleet.restarts;
  Alcotest.(check int) "zero lost responses" 0 r.Fleet.lost;
  Alcotest.(check int) "books balance" r.Fleet.offered
    (r.Fleet.completed + r.Fleet.shed)

let test_cost_factor_scales_costs () =
  let base = Fleet.create ~image () and slow = Fleet.create ~cost_factor:2.0 ~image () in
  let b = Fleet.costs base and s = Fleet.costs slow in
  Alcotest.(check (float 1e-6)) "service cost doubles" (2.0 *. b.Fleet.service_ns)
    s.Fleet.service_ns;
  Alcotest.(check (float 1e-6)) "boot cost doubles" (2.0 *. b.Fleet.cold_boot_ns)
    s.Fleet.cold_boot_ns

(* --- the inference image --------------------------------------------------- *)

let test_infer_image_calibrates () =
  let img = Image.infer ~size_mb:8 () in
  Alcotest.(check string) "named by model size" "infer-8mb" img.Image.name;
  Alcotest.(check int) "footprint = base + weights" 16 img.Image.mem_mb;
  let f = Fleet.create ~image:img () in
  let c = Fleet.costs f in
  let httpd_cold = (Fleet.costs (Fleet.create ~image ())).Fleet.cold_boot_ns in
  Alcotest.(check bool) "weight stream charged into cold boot" true
    (c.Fleet.cold_boot_ns > httpd_cold);
  Alcotest.(check bool) "small model: clone still beats cold" true
    (c.Fleet.clone_ns < c.Fleet.cold_boot_ns);
  Alcotest.(check bool) "service includes a weight pass" true
    (c.Fleet.service_ns > 100.0 *. 1e3);
  let r = Fleet.run f (Workload.steady ~rps:(0.5 *. (1e9 /. c.Fleet.service_ns)) ~duration_ns:(ms 20.0)) in
  Alcotest.(check int) "none lost" 0 r.Fleet.lost;
  Alcotest.(check bool) "requests completed" true (r.Fleet.completed > 0);
  Image.uncache img

let test_infer_cold_streams_cheaper_per_mb_than_clone () =
  (* The crossover's mechanism: growing the model raises a cold boot by
     the streaming slope but raises a clone by the full memcpy slope. *)
  let costs size_mb =
    let img = Image.infer ~size_mb () in
    let c = Fleet.costs (Fleet.create ~image:img ()) in
    Image.uncache img;
    c
  in
  let a = costs 8 and b = costs 64 in
  let d_cold = b.Fleet.cold_boot_ns -. a.Fleet.cold_boot_ns in
  let d_clone = b.Fleet.clone_ns -. a.Fleet.clone_ns in
  Alcotest.(check bool) "cold grows with model size" true (d_cold > 0.0);
  Alcotest.(check bool) "but slower than the clone copy" true (d_cold < d_clone)

let test_freeze_thaw_releases_late () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let f = Fleet.create ~substrate:(`Engine (clock, engine)) ~initial:1 ~image () in
  Fleet.start f;
  let t0 = Fleet.settle_ns f in
  let at ns g = Uksim.Engine.at engine (Uksim.Clock.cycles_of_ns ns) g in
  let lat = ref nan and oks = ref 0 in
  at t0 (fun () ->
      Fleet.submit ~flow:1
        ~on_reply:(fun ~ok ~latency_ns ->
          if ok then begin incr oks; lat := latency_ns end)
        f ~now_ns:t0;
      Fleet.freeze f ~now_ns:t0;
      Alcotest.(check bool) "frozen" true (Fleet.frozen f));
  at (t0 +. ms 5.0) (fun () -> Fleet.thaw f ~now_ns:(t0 +. ms 5.0));
  Uksim.Engine.run engine;
  Alcotest.(check int) "held reply released once" 1 !oks;
  Alcotest.(check bool) "the stall shows up in latency" true (!lat >= ms 4.9)

let test_draining_sheds_new_arrivals () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let f = Fleet.create ~substrate:(`Engine (clock, engine)) ~initial:1 ~image () in
  Fleet.start f;
  let t0 = Fleet.settle_ns f in
  let shed = ref 0 and served = ref 0 in
  Uksim.Engine.at engine (Uksim.Clock.cycles_of_ns t0) (fun () ->
      Fleet.set_draining f true;
      Fleet.submit ~flow:1
        ~on_reply:(fun ~ok ~latency_ns:_ -> incr (if ok then served else shed))
        f ~now_ns:t0;
      Fleet.set_draining f false;
      Fleet.submit ~flow:2
        ~on_reply:(fun ~ok ~latency_ns:_ -> incr (if ok then served else shed))
        f ~now_ns:t0);
  Uksim.Engine.run engine;
  Alcotest.(check int) "draining front door sheds" 1 !shed;
  Alcotest.(check int) "reopened front door serves" 1 !served

(* --- per-fleet readings ----------------------------------------------------- *)

(* A caller-driven timeline for [`Engine] fleets. *)
let shared_engine () =
  let clock = Uksim.Clock.create () in
  (clock, Uksim.Engine.create clock)

(* [n] requests to [f], [gap_ns] apart from its settle point. *)
let drive engine f ~n ~gap_ns =
  let t0 = Fleet.settle_ns f in
  for i = 0 to n - 1 do
    let at = t0 +. (float_of_int i *. gap_ns) in
    Uksim.Engine.at engine (Uksim.Clock.cycles_of_ns at) (fun () ->
        Fleet.submit ~flow:i f ~now_ns:at)
  done

let own_readings () =
  let clock, engine = shared_engine () in
  let mk initial =
    Fleet.create ~substrate:(`Engine (clock, engine)) ~autoscale:Autoscaler.default
      ~initial ~image ()
  in
  let a = mk 3 and b = mk 1 in
  Fleet.start a;
  Fleet.start b;
  let level f name = Uktrace.Source.level (Fleet.source f) name in
  (* One burst each at the same instant: 12 requests on 3 instances, 2
     on 1. Right after it, each fleet's queue holds only its own. *)
  let t0 = Fleet.settle_ns a in
  Uksim.Engine.at engine (Uksim.Clock.cycles_of_ns t0) (fun () ->
      for i = 1 to 12 do
        Fleet.submit ~flow:i a ~now_ns:t0
      done;
      for i = 1 to 2 do
        Fleet.submit ~flow:i b ~now_ns:t0
      done;
      Alcotest.(check (float 0.0)) "a's queue_depth" 12.0 (level a "queue_depth");
      Alcotest.(check (float 0.0)) "b's queue_depth" 2.0 (level b "queue_depth"));
  Uksim.Engine.run engine;
  let ra = Fleet.report a and rb = Fleet.report b in
  Alcotest.(check int) "all answered" 14 (ra.Fleet.completed + rb.Fleet.completed);
  Alcotest.(check (float 0.0)) "a's instances_up" 3.0 (level a "instances_up");
  Alcotest.(check (float 0.0)) "b's instances_up" 1.0 (level b "instances_up");
  (* The burst's completions fell in one control window, so each
     fleet's window p99 is its whole-run p99. *)
  Alcotest.(check (float 1e-9)) "a's window_p99_us" ra.Fleet.p99_us
    (level a "window_p99_us");
  Alcotest.(check (float 1e-9)) "b's window_p99_us" rb.Fleet.p99_us
    (level b "window_p99_us");
  Alcotest.(check bool) "and the two differ" true (ra.Fleet.p99_us > rb.Fleet.p99_us);
  Uktrace.Registry.clear ();
  Alcotest.(check (list string)) "no ukfleet source outlives clear" []
    (List.filter_map
       (fun s ->
         if s.Uktrace.Source.subsystem = "ukfleet" then Some (Uktrace.Source.id s)
         else None)
       (Uktrace.Registry.sources ()))

let shared_engine_keeps_trace () =
  let run ~with_b =
    let clock, engine = shared_engine () in
    let mk seed =
      Fleet.create ~seed ~substrate:(`Engine (clock, engine)) ~boot_mode:Fleet.Snapshot
        ~autoscale:Autoscaler.default ~image ()
    in
    let a = mk 3 in
    let svc = (Fleet.costs a).Fleet.service_ns in
    Fleet.start a;
    drive engine a ~n:3000 ~gap_ns:(svc /. 3.0);
    if with_b then begin
      let b = mk 4 in
      Fleet.start b;
      drive engine b ~n:2000 ~gap_ns:(svc /. 2.0)
    end;
    Uksim.Engine.run engine;
    (Fleet.trace_hash a, Fleet.report a)
  in
  let alone, r = run ~with_b:false and shared, _ = run ~with_b:true in
  Alcotest.(check bool) "the autoscaler scaled out" true (r.Fleet.peak_instances > 1);
  Alcotest.(check int) "same trace beside a second fleet" alone shared

let test_each_fleet_reads_its_own () =
  own_readings ();
  shared_engine_keeps_trace ()

let suite =
  [
    Alcotest.test_case "workload shapes" `Quick test_workload_shapes;
    Alcotest.test_case "frontdoor: round robin" `Quick test_round_robin_rotates;
    Alcotest.test_case "frontdoor: least loaded" `Quick test_least_loaded_argmin;
    Alcotest.test_case "frontdoor: consistent hash" `Quick test_consistent_hash_affinity;
    Alcotest.test_case "autoscaler: demand + hysteresis" `Quick
      test_autoscaler_demand_and_hysteresis;
    Alcotest.test_case "faultvm: seeded victims" `Quick test_faultvm_victims;
    Alcotest.test_case "image calibration" `Quick test_calibration;
    Alcotest.test_case "cost ordering" `Quick test_costs_ordering;
    Alcotest.test_case "infer image calibrates and serves" `Quick
      test_infer_image_calibrates;
    Alcotest.test_case "infer cold boot streams cheaper per MB than clone" `Quick
      test_infer_cold_streams_cheaper_per_mb_than_clone;
    Alcotest.test_case "steady run completes" `Quick test_steady_run_completes;
    Alcotest.test_case "seeded replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "autoscaler scales the fleet" `Quick test_autoscaler_scales_fleet;
    Alcotest.test_case "warm pool activates spares" `Quick test_warm_pool_hits;
    Alcotest.test_case "snapshot mode clones" `Quick test_snapshot_clones;
    Alcotest.test_case "overload sheds explicitly" `Quick test_shedding_is_explicit;
    Alcotest.test_case "kill -> respawn, zero lost" `Quick test_kill_respawns_zero_lost;
    Alcotest.test_case "kill -> respawn, zero lost over 16 seeds" `Quick
      test_kill_respawns_zero_lost_over_seeds;
    Alcotest.test_case "kill rejects unknown id" `Quick test_kill_rejects_unknown;
    Alcotest.test_case "frontdoor: quarantine keeps affinity" `Quick
      test_quarantine_keeps_affinity;
    Alcotest.test_case "back-to-back kills in one backoff window" `Quick
      test_back_to_back_kills_one_backoff_window;
    Alcotest.test_case "cost factor scales the cost model" `Quick
      test_cost_factor_scales_costs;
    Alcotest.test_case "freeze/thaw releases replies late" `Quick
      test_freeze_thaw_releases_late;
    Alcotest.test_case "draining sheds new arrivals" `Quick
      test_draining_sheds_new_arrivals;
    Alcotest.test_case "each fleet reads its own numbers" `Quick
      test_each_fleet_reads_its_own;
  ]
