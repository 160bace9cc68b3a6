(* Inference serving benchmark: the model server as a fleet workload.

   Two questions drive the experiment:

   1. The batching knob — the admission queue amortizes the per-batch
      weight-pass sweep, so max_batch trades p50/p99 latency against
      throughput. The sweep quantifies that curve on the zero-copy
      serving path.

   2. Boot economics vs model size — a cold boot streams weights from
      the block store through Blockfs's windowed path (cheap per byte,
      large fixed cost), while a snapshot clone eagerly copies the full
      loaded footprint (expensive per byte, small fixed cost). The
      model-size sweep locates the crossover; gates check that clones
      win at <= 128 MB and the crossover sits in (128, 512].

   Plus the fleet drills: a 10x flash crowd must lose zero responses,
   and a fixed seed must replay byte-identically (infer_replay). *)

open Common
module Fleet = Ukfleet.Fleet
module Image = Ukfleet.Image
module Workload = Ukfleet.Workload
module Autoscaler = Ukfleet.Autoscaler
module Cluster = Ukapps.Cluster
module Infer = Ukapps.Infer

let netbuf = Ukapps.Serve.Netbuf { rtc = true }

let seed = 0x1FE2
let shed_after_ns = Uksim.Units.msec 50.0
let bucket_ns = Uksim.Units.msec 1.0

(* --- batch-knob sweep ------------------------------------------------------ *)

let run_batch_sweep () =
  row "batch knob: p50/p99 vs throughput, 16 MB model, 16 concurrent flows\n";
  let requests = Bench.scaled 2048 in
  let results =
    List.map
      (fun max_batch ->
        Bench.trial ();
        let c = Cluster.create ~seed ~n:1 () in
        ignore (Cluster.add_infer c ~transport:netbuf ~size_mb:16 ~max_batch ());
        let r =
          Cluster.run_load c ~transport:netbuf ~port:8000 ~connections_per_core:16
            ~requests_per_core:requests (Ukapps.Infer.client ())
        in
        row "  max_batch %2d  p50 %8.1fus  p99 %8.1fus  %8.0f req/s\n" max_batch
          r.Ukapps.Load.p50_us r.Ukapps.Load.p99_us
          r.Ukapps.Load.rate_per_sec;
        Bench.emit_f (Printf.sprintf "batch%d_p50_us" max_batch) r.Ukapps.Load.p50_us;
        Bench.emit_f (Printf.sprintf "batch%d_p99_us" max_batch) r.Ukapps.Load.p99_us;
        Bench.emit_f (Printf.sprintf "batch%d_rps" max_batch) r.Ukapps.Load.rate_per_sec;
        (max_batch, r))
      [ 1; 2; 4; 8; 16 ]
  in
  let rps k = (List.assoc k results).Ukapps.Load.rate_per_sec in
  row "  => batching gains %.2fx throughput (1 -> 16)\n" (rps 16 /. rps 1);
  Bench.emit_f "batch_speedup_16_over_1" (rps 16 /. rps 1);
  Bench.gate "batch_amortizes" (rps 16 > rps 1)

(* --- model-size sweep: cold boot vs warm pool vs snapshot clone ------------ *)

let sizes = [ 8; 32; 128; 256; 512 ]

let run_model_sweep () =
  row "\nboot economics vs model size (firecracker; cold streams, clone copies)\n";
  let curve =
    List.map
      (fun size_mb ->
        Bench.trial ();
        let image = Image.infer ~size_mb () in
        let f = Fleet.create ~image () in
        let c = Fleet.costs f in
        row "  %4d MB  cold %8.3f ms  clone %8.3f ms  warm %6.3f ms  service %8.1f us\n"
          size_mb (ms c.Fleet.cold_boot_ns) (ms c.Fleet.clone_ns)
          (ms c.Fleet.warm_activation_ns) (us c.Fleet.service_ns);
        Bench.emit_f (Printf.sprintf "size%d_cold_ms" size_mb) (ms c.Fleet.cold_boot_ns);
        Bench.emit_f (Printf.sprintf "size%d_clone_ms" size_mb) (ms c.Fleet.clone_ns);
        Bench.emit_f (Printf.sprintf "size%d_warm_ms" size_mb)
          (ms c.Fleet.warm_activation_ns);
        Bench.emit_f (Printf.sprintf "size%d_service_us" size_mb) (us c.Fleet.service_ns);
        (* Release this size's calibration before building the next — the
           512 MB rig retains a full disk image otherwise. *)
        Image.uncache image;
        (size_mb, c.Fleet.cold_boot_ns, c.Fleet.clone_ns))
      sizes
  in
  (* Locate where the cold-boot line (large fixed cost, shallow slope)
     crosses the clone line (small fixed cost, steep slope): linear
     interpolation between the last clone-wins size and the first
     cold-wins size. *)
  let crossover =
    let rec find = function
      | (s0, cold0, clone0) :: ((s1, cold1, clone1) :: _ as rest) ->
          if clone0 < cold0 && cold1 <= clone1 then begin
            let d0 = cold0 -. clone0 and d1 = clone1 -. cold1 in
            Some (float_of_int s0 +. (float_of_int (s1 - s0) *. d0 /. (d0 +. d1)))
          end
          else find rest
      | _ -> None
    in
    find curve
  in
  let clone_wins_le128 =
    List.for_all (fun (s, cold, clone) -> s > 128 || clone < cold) curve
  in
  (match crossover with
  | Some mb -> row "  => clone/cold crossover at ~%.0f MB of weights\n" mb
  | None -> row "  => no crossover inside the swept range\n");
  Bench.emit_f "crossover_mb" (Option.value crossover ~default:0.0);
  Bench.gate "crossover_in_128_512"
    (match crossover with Some mb -> mb > 128.0 && mb <= 512.0 | None -> false);
  Bench.gate "clone_beats_cold_le128" clone_wins_le128

(* --- 10x flash crowd ------------------------------------------------------- *)

let horizon ms = Uksim.Units.msec (if Bench.fast then ms /. 4.0 else ms)

let spike_workload cap =
  let dur = horizon 150.0 in
  Workload.spike ~base_rps:(1.5 *. cap) ~factor:10.0 ~at_ns:(0.2 *. dur)
    ~spike_ns:(0.4 *. dur) ~duration_ns:dur

let spike_image = Image.infer ~size_mb:8 ()

let mk_fleet () =
  Bench.trial ();
  Fleet.create ~seed ~boot_mode:Fleet.Snapshot ~autoscale:Autoscaler.default ~initial:2
    ~shed_after_ns ~slo_bucket_ns:bucket_ns ~image:spike_image ()

let run_spike () =
  row "\nflash crowd: 10x spike on a snapshot-cloned 8 MB-model fleet\n";
  let cap = 1e9 /. (Fleet.costs (Fleet.create ~image:spike_image ())).Fleet.service_ns in
  let r = Fleet.run (mk_fleet ()) (spike_workload cap) in
  row "  p50 %6.0fus  p99 %8.0fus  shed %d  lost %d  clones %d  peak %d\n" r.Fleet.p50_us
    r.Fleet.p99_us r.Fleet.shed r.Fleet.lost r.Fleet.clones r.Fleet.peak_instances;
  Bench.emit_f "infer_spike_p99_us" r.Fleet.p99_us;
  Bench.emit_i "infer_spike_shed" r.Fleet.shed;
  Bench.emit_i "infer_spike_lost" r.Fleet.lost;
  Bench.emit_i "infer_spike_peak" r.Fleet.peak_instances;
  Bench.gate "infer_spike_zero_lost" (r.Fleet.lost = 0)

(* --- seeded replay --------------------------------------------------------- *)

let run_replay () =
  row "\nseeded replay: same seed, same fleet => byte-identical event trace\n";
  let cap = 1e9 /. (Fleet.costs (Fleet.create ~image:spike_image ())).Fleet.service_ns in
  let w = spike_workload cap in
  let go () = Fleet.run (mk_fleet ()) w in
  let a = go () in
  Bench.emit_s "infer_trace_hash" (Printf.sprintf "%016x" a.Fleet.trace_hash);
  Bench.replay "infer" ~first:(fleet_fingerprint a) (fun () -> fleet_fingerprint (go ()))

let run () =
  Bench.phase "batch" run_batch_sweep;
  Bench.phase "modelsize" run_model_sweep;
  Bench.phase "spike" run_spike;
  Bench.phase "replay" run_replay

let register () =
  Bench.register ~id:"infer" ~group:"infer"
    ~descr:"batched inference serving: batch knob, clone-vs-cold crossover, spike, replay"
    run
