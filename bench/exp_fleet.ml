(* Fleet orchestration benchmark: boot-for-scale as a control plane.

   The paper's millisecond boots (Fig 15/16) matter operationally
   because they let a fleet scale reactively instead of over-provisioning.
   This experiment replays three workload shapes — a linear ramp, a
   compressed diurnal cycle, and the flash-crowd 10x spike — against an
   autoscaled fleet under each scale-out path (cold boot, warm pool,
   snapshot clone) and against Linux-VM and Docker baseline fleets built
   from the same §5 profiles. Headline gates:

   - a clone costs less than a cold boot, and snapshot-clone scale-out
     beats cold boot on spike p99;
   - the unikernel fleet's SLO-violation window under the spike is
     >= 5x shorter than the Linux-VM baseline's (cold boots beat it too);
   - a fixed seed replays with a byte-identical report and event-trace
     hash, the rerun with the tracer on (fleet_replay).

   Everything derives from the calibrated substrate: Image.calibrate
   boots the httpd constructor table through Ukplat.Vmm.boot and
   measures per-request service time over a real uknetstack loopback. *)

open Common
module Fleet = Ukfleet.Fleet
module Workload = Ukfleet.Workload
module Autoscaler = Ukfleet.Autoscaler
module Frontdoor = Ukfleet.Frontdoor

let image = Ukfleet.Image.httpd
let seed = 0xF1EE7

(* Wider-than-default shed bound and fine SLO buckets: requests queue
   through a scale-out stall instead of being cut off at the default 4 ms
   bound, so p99 and the violation window resolve the difference between
   a 3.7 ms cold boot and a 1.3 ms clone. *)
let shed_after_ns = Uksim.Units.msec 50.0
let bucket_ns = Uksim.Units.msec 1.0

let mk ?(boot_mode = Fleet.Cold) ?backend ?policy () =
  Bench.trial ();
  Fleet.create ~seed ?backend ~boot_mode ?policy ~autoscale:Autoscaler.default
    ~initial:2 ~shed_after_ns ~slo_bucket_ns:bucket_ns ~image ()

let capacity () =
  let f = Fleet.create ~image () in
  1e9 /. (Fleet.costs f).Fleet.service_ns

(* Virtual horizon per scenario; FAST mode shortens the horizon, not the
   rates — the scale-out story needs the offered load kept honest. *)
let horizon ms = Uksim.Units.msec (if Bench.fast then ms /. 4.0 else ms)

let show name (r : Fleet.report) =
  row "  %-14s p50 %6.0fus  p99 %8.0fus  slo-viol %6.1fms  shed %5d  boots %d/%d/%d  peak %2d\n"
    name r.Fleet.p50_us r.Fleet.p99_us
    (r.Fleet.slo_violation_ns /. 1e6)
    r.Fleet.shed r.Fleet.cold_boots r.Fleet.clones r.Fleet.warm_hits
    r.Fleet.peak_instances

(* --- calibration ----------------------------------------------------------- *)

let run_calib () =
  Bench.trial ();
  row "calibrated costs (httpd image, firecracker)\n";
  (* Measure the calibration here, even when an earlier group (chaos)
     already calibrated the image. *)
  Ukfleet.Image.uncache image;
  let f = Fleet.create ~image () in
  let c = Fleet.costs f in
  row "  cold boot  %8.3f ms   (vmm create + full guest boot)\n" (c.Fleet.cold_boot_ns /. 1e6);
  row "  clone      %8.3f ms   (snapshot restore + %d MB copy)\n" (c.Fleet.clone_ns /. 1e6)
    image.Ukfleet.Image.mem_mb;
  row "  warm hit   %8.3f ms   (activation of a pre-booted spare)\n"
    (c.Fleet.warm_activation_ns /. 1e6);
  row "  service    %8.1f us   => one instance ~ %.0f req/s\n" (c.Fleet.service_ns /. 1e3)
    (1e9 /. c.Fleet.service_ns);
  Bench.emit_f "cold_boot_ms" (c.Fleet.cold_boot_ns /. 1e6);
  Bench.emit_f "clone_ms" (c.Fleet.clone_ns /. 1e6);
  Bench.emit_f "warm_activation_ms" (c.Fleet.warm_activation_ns /. 1e6);
  Bench.emit_f "service_us" (c.Fleet.service_ns /. 1e3);
  Bench.gate "clone_cheaper_than_cold" (c.Fleet.clone_ns < c.Fleet.cold_boot_ns)

(* --- ramp ------------------------------------------------------------------ *)

let run_ramp () =
  let cap = capacity () in
  row "\nramp: 0.5x -> 4x one-instance capacity over %.0f ms (autoscaled)\n"
    (horizon 100.0 /. 1e6);
  let w =
    Workload.ramp ~from_rps:(0.5 *. cap) ~to_rps:(4.0 *. cap) ~duration_ns:(horizon 100.0)
  in
  List.iter
    (fun (name, bm) ->
      let r = Fleet.run (mk ~boot_mode:bm ()) w in
      show name r;
      Bench.emit_f (Printf.sprintf "ramp_%s_p99_us" name) r.Fleet.p99_us;
      Bench.emit_i (Printf.sprintf "ramp_%s_lost" name) r.Fleet.lost)
    [ ("cold", Fleet.Cold); ("warm", Fleet.Warm_pool 2); ("clone", Fleet.Snapshot) ]

(* --- diurnal --------------------------------------------------------------- *)

let run_diurnal () =
  let cap = capacity () in
  row "\ndiurnal: base 1.5x capacity, amplitude 0.8, two compressed day cycles\n";
  let dur = horizon 120.0 in
  let w =
    Workload.diurnal ~base_rps:(1.5 *. cap) ~amplitude:0.8 ~period_ns:(dur /. 2.0)
      ~duration_ns:dur
  in
  List.iter
    (fun (name, bm) ->
      let r = Fleet.run (mk ~boot_mode:bm ()) w in
      show name r;
      Bench.emit_f (Printf.sprintf "diurnal_%s_p99_us" name) r.Fleet.p99_us;
      Bench.emit_i (Printf.sprintf "diurnal_%s_retired" name) r.Fleet.retired)
    [ ("cold", Fleet.Cold); ("clone", Fleet.Snapshot) ]

(* --- the 10x spike --------------------------------------------------------- *)

let spike_workload cap =
  let dur = horizon 150.0 in
  Workload.spike ~base_rps:(1.5 *. cap) ~factor:10.0 ~at_ns:(0.2 *. dur)
    ~spike_ns:(0.4 *. dur) ~duration_ns:dur

let run_spike () =
  let cap = capacity () in
  row "\nflash crowd: 10x spike over 1.5x-capacity base (the paper's motivation)\n";
  let w = spike_workload cap in
  let results =
    List.map
      (fun (name, boot_mode, backend) ->
        let r = Fleet.run (mk ~boot_mode ?backend ()) w in
        show name r;
        Bench.emit_f (Printf.sprintf "spike_%s_p99_us" name) r.Fleet.p99_us;
        Bench.emit_f (Printf.sprintf "spike_%s_slo_ms" name)
          (r.Fleet.slo_violation_ns /. 1e6);
        Bench.emit_i (Printf.sprintf "spike_%s_shed" name) r.Fleet.shed;
        Bench.emit_i (Printf.sprintf "spike_%s_lost" name) r.Fleet.lost;
        (name, r))
      [
        ("cold", Fleet.Cold, None);
        ("warm", Fleet.Warm_pool 4, None);
        ("clone", Fleet.Snapshot, None);
        ("linux_vm", Fleet.Cold, Some (Fleet.Baseline Ukos.Profiles.linux_vm));
        ("docker", Fleet.Cold, Some (Fleet.Baseline Ukos.Profiles.docker));
      ]
  in
  let get n = List.assoc n results in
  let slo n = (get n).Fleet.slo_violation_ns in
  let ratio = slo "linux_vm" /. Float.max bucket_ns (slo "clone") in
  row "  => clone p99 %.0fus vs cold %.0fus; SLO window linux/clone = %.1fx\n"
    (get "clone").Fleet.p99_us (get "cold").Fleet.p99_us ratio;
  Bench.emit_f "spike_slo_ratio_linux_over_clone" ratio;
  Bench.gate "spike_clone_beats_cold" ((get "clone").Fleet.p99_us < (get "cold").Fleet.p99_us);
  Bench.gate "spike_slo_ratio_ge5" (ratio >= 5.0);
  Bench.gate "spike_cold_beats_linux" (slo "cold" < slo "linux_vm")

(* --- front-door policies --------------------------------------------------- *)

let run_policies () =
  let cap = capacity () in
  row "\nfront-door policies at fixed fleet size (steady 3x capacity, 4 instances)\n";
  let w = Workload.steady ~rps:(3.0 *. cap) ~duration_ns:(horizon 60.0) in
  List.iter
    (fun (name, p) ->
      Bench.trial ();
      let f =
        Fleet.create ~seed ~policy:p ~initial:4 ~shed_after_ns ~slo_bucket_ns:bucket_ns
          ~image ()
      in
      let r = Fleet.run f w in
      show name r;
      Bench.emit_f (Printf.sprintf "policy_%s_p99_us" name) r.Fleet.p99_us)
    [
      ("round_robin", Frontdoor.Round_robin);
      ("least_loaded", Frontdoor.Least_loaded);
      ("cons_hash", Frontdoor.Consistent_hash);
    ]

(* --- seeded replay --------------------------------------------------------- *)

let run_replay () =
  let cap = capacity () in
  row "\nseeded replay: same seed, same config => byte-identical event trace\n";
  let w = spike_workload cap in
  let go () = Fleet.run (mk ~boot_mode:Fleet.Snapshot ()) w in
  let a = go () in
  Bench.emit_s "fleet_trace_hash" (Printf.sprintf "%016x" a.Fleet.trace_hash);
  Bench.replay "fleet" ~first:(fleet_fingerprint a) (fun () -> fleet_fingerprint (go ()))

let run () =
  Bench.phase "calib" run_calib;
  Bench.phase "ramp" run_ramp;
  Bench.phase "diurnal" run_diurnal;
  Bench.phase "spike" run_spike;
  Bench.phase "policies" run_policies;
  Bench.phase "replay" run_replay

let register () =
  Bench.register ~id:"fleet" ~group:"fleet"
    ~descr:"fleet orchestration: cold vs warm-pool vs snapshot-clone scale-out vs baselines"
    run
