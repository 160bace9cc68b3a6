(* ukbench: the seeded end-to-end and per-layer benchmark.

     ukbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
     ukbench --agree A.json[,A2.json...] B.json[,B2.json...]

   Without --workload every workload runs, each in a child process of its
   own (this executable again), one after another. A workload runs one
   warm-up at a tenth of its size, then timed repetitions on fresh rigs
   until --seconds have passed (at least three). Virtual-time results must
   replay exactly across repetitions. --trace adds one traced repetition
   that gives the per-layer split and must replay the untraced ones.
   --smoke runs everything at 1/100 size.

   Every metric prints as "workload metric value unit"; the last line is
   one JSON object {correct, attempted, failed, metrics} holding the
   end-to-end metrics, or the per-layer ones with --trace. The exit code
   is 1 when a reply was wrong or missing, a store lost an acknowledged
   write, the per-layer split did not add up, or a replay diverged. *)

module Cl = Ukapps.Cluster
module Reg = Uktrace.Registry

type kind = Virtual | Host

(* End-to-end metrics. Virtual ones are deterministic for a seed; host
   ones measure the simulator itself. *)
let end_to_end =
  [
    ("throughput_rps", "req/s", Virtual);
    ("p50_us", "us", Virtual);
    ("p999_us", "us", Virtual);
    ("wall_s", "s", Host);
    ("setup_s", "s", Host);
    ("peak_heap_mb", "MiB", Host);
  ]

let per_layer =
  [
    ("uksmp.steps_per_req", "steps/req");
    ("uksmp.ipis_per_req", "ipis/req");
    ("uksmp.steals", "count");
    ("uksmp.server_busy_frac", "frac");
    ("client.busy_frac", "frac");
    ("uksim.wall_ns_per_step", "ns");
    ("uknetstack.rx_tcp_per_req", "pkts/req");
    ("uknetstack.tx_pkts_per_req", "pkts/req");
    ("uknetstack.self_cycles_per_req", "cycles/req");
    ("uknetstack.retransmits", "count");
    ("uknetstack.rx_drop", "count");
    ("uknetdev.copies_per_req", "copies/req");
    ("uknetdev.copy_bytes_per_req", "B/req");
    ("ukalloc.allocs_per_req", "allocs/req");
    ("ukalloc.percore_refills_per_kreq", "refills/kreq");
    ("ukalloc.self_cycles_per_req", "cycles/req");
    ("uklock.contended_frac", "frac");
    ("uklock.wait_cycles_per_req", "cycles/req");
    ("ukapps.self_cycles_per_req", "cycles/req");
    ("ukblock.self_cycles_per_req", "cycles/req");
    ("unattributed.cycles_per_req", "cycles/req");
    ("ukblock.writes_per_commit", "writes/commit");
    ("ukblock.sectors_written_per_commit", "sectors/commit");
    ("ukblock.flushes_per_commit", "flushes/commit");
    ("ukblock.wait_us_per_commit", "us/commit");
    ("ukblock.busy_frac", "frac");
    ("ukblock.write_amplification", "ratio");
    ("ukstore.journal_records_per_commit", "records/commit");
    ("ukstore.journal_bytes_per_commit", "B/commit");
    ("ukstore.fsync_barriers_per_commit", "barriers/commit");
    ("ukstore.checkpoints", "count");
    ("ukstore.cache_hit_frac", "frac");
    ("ukstore.tree_depth", "levels");
    ("commit_p99_us", "us");
    ("trace.overhead_frac", "frac");
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, u, _) -> u
  | None -> List.assoc name per_layer

(* --- one repetition ------------------------------------------------------ *)

type rep = {
  wall_s : float;
  hash : int;
  attempted : int;
  failed : int;
  problems : string list;
  virt : (string * float) list;  (** must replay exactly *)
  split : (string * float) list;  (** traced repetitions only *)
}

let now = Unix.gettimeofday
let div a b = if b = 0.0 then 0.0 else a /. b

(* Nearest-rank percentile of a sorted array. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let value = function
  | Uktrace.Metric.Count n -> float_of_int n
  | Uktrace.Metric.Level f -> f
  | Uktrace.Metric.Buckets _ -> 0.0

(* Sum of the samples [pick] selects, over the first [limit] sources
   registered under [src]; a [src] ending in "." takes a whole subsystem. *)
let sum ?(limit = max_int) diff src pick =
  let base uid = match String.index_opt uid '#' with Some i -> String.sub uid 0 i | None -> uid in
  let matches id =
    if String.ends_with ~suffix:"." src then String.starts_with ~prefix:src id else id = src
  in
  let seen = ref 0 in
  List.fold_left
    (fun acc (e : Reg.entry_snap) ->
      if matches (base e.suid) && !seen < limit then begin
        incr seen;
        List.fold_left (fun acc (name, v) -> if pick name then acc +. value v else acc) acc e.samples
      end
      else acc)
    0.0 diff

(* Build a rig and queue its load; returns the window start. *)
let setup ~seed ~scale ~corrupt ~spans (shape : Rig.shape) =
  let rig = Rig.build ~seed ~corrupt ~scale shape in
  let tally = Client.new_tally () in
  let requests = int_of_float (float_of_int shape.requests *. scale) in
  Rig.spawn_clients rig ~seed ~per_conn:(max shape.pipeline (requests / shape.conns)) ~tally ~spans;
  (rig, tally, Rig.align rig)

let run_rep ~seed ~scale ~corrupt ~traced (shape : Rig.shape) ~spans =
  Gc.compact ();
  let rig, tally, start_ns = setup ~seed ~scale ~corrupt ~spans:(if traced then Some spans else None) shape in
  let smp = Cl.smp rig.cluster in
  Array.iter Rig.blk_reset rig.blks;
  let before = Reg.snapshot () in
  let layers = if traced then Some (Layers.attach smp spans) else None in
  let probe = Probe.create () in
  let forward = match layers with Some l -> Layers.step l | None -> fun ~core:_ ~cycles:_ -> () in
  Uksmp.Smp.set_step_observer smp (Some (Probe.observer probe forward));
  let w0 = now () in
  let deadlock =
    try
      Uksmp.Smp.run smp;
      None
    with Uksched.Sched.Deadlock names -> Some names
  in
  let wall_s = Probe.scaled_wall probe (now () -. w0) in
  let trace_problems = match layers with Some l -> Layers.finish l | None -> [] in
  let diff = Reg.diff ~before ~after:(Reg.snapshot ()) in
  let hash = Cl.trace_hash rig.cluster in
  let lost = match shape.proto with Rig.Kv _ -> Rig.verify_stores rig | Rig.Http | Rig.Resp _ -> 0 in
  let failed = Client.failed tally in
  let problems =
    List.concat
      [
        (if failed > 0 then [ Printf.sprintf "%d of %d requests failed" failed tally.attempted ]
         else []);
        (if tally.stray_bytes > 0 then
           [ Printf.sprintf "%d reply bytes matched no request" tally.stray_bytes ]
         else []);
        (match deadlock with Some names -> [ "clients stuck: " ^ String.concat "," names ] | None -> []);
        (if lost > 0 then [ Printf.sprintf "%d store keys or heads wrong after remount" lost ] else []);
        trace_problems;
      ]
  in
  let req = float_of_int tally.attempted in
  let lat = Client.Fvec.sorted tally.lat_ns and clat = Client.Fvec.sorted tally.commit_lat_ns in
  let n = shape.cores in
  let ends s name = String.ends_with ~suffix:s name and is s name = name = s in
  let per_req x = div x req in
  let commits = sum diff "ukstore.store" (is "commits") in
  let per_commit x = div x commits in
  let store s = sum diff "ukstore.store" (is s) in
  let blk f = Array.fold_left (fun acc b -> acc +. f b) 0.0 rig.blks in
  let window_ns = tally.t_end_ns -. start_ns in
  let virt =
    [
      ("throughput_rps", div req (window_ns /. 1e9));
      ("p50_us", pct lat 50.0 /. 1e3);
      ("p999_us", pct lat 99.9 /. 1e3);
      ("commit_p99_us", pct clat 99.0 /. 1e3);
      ("attempted", req);
      ("failed", float_of_int failed);
      ("uksmp.steps", sum diff "uksmp.cores" (ends ".steps"));
      ("uksmp.steps_per_req", per_req (sum diff "uksmp.cores" (ends ".steps")));
      ("uksmp.ipis_per_req", per_req (sum diff "uksmp.cores" (ends ".ipis")));
      ("uksmp.steals", sum diff "uksmp.cores" (ends ".steals"));
      (* Cluster.create registers the server stacks before the client ones. *)
      ("uknetstack.rx_tcp_per_req", per_req (sum ~limit:n diff "uknetstack.stack" (is "rx_tcp")));
      ("uknetstack.tx_pkts_per_req", per_req (sum ~limit:n diff "uknetstack.stack" (is "tx_pkts")));
      ("uknetstack.retransmits", sum diff "uknetstack.stack" (ends "retransmits"));
      ("uknetstack.rx_drop", sum diff "uknetstack.stack" (is "rx_drop"));
      ("uknetdev.copies_per_req", per_req (sum diff "uknetdev.copies" (fun s -> s <> "bytes")));
      ("uknetdev.copy_bytes_per_req", per_req (sum diff "uknetdev.copies" (is "bytes")));
      ("ukalloc.allocs_per_req", per_req (sum diff "ukalloc.percore" (is "allocs")));
      ("ukalloc.percore_refills_per_kreq", 1e3 *. per_req (sum diff "ukalloc.percore" (is "refills")));
      ( "uklock.contended_frac",
        div (sum diff "uklock." (is "contended")) (sum diff "uklock." (is "acquisitions")) );
      ("uklock.wait_cycles_per_req", per_req (sum diff "uklock." (is "wait_cycles")));
      ("ukblock.writes_per_commit", per_commit (blk (fun b -> float_of_int b.writes)));
      ("ukblock.sectors_written_per_commit", per_commit (blk (fun b -> float_of_int b.sectors_written)));
      ("ukblock.flushes_per_commit", per_commit (blk (fun b -> float_of_int b.flushes)));
      ("ukblock.wait_us_per_commit", per_commit (blk (fun b -> b.wait_ns /. 1e3)));
      ( "ukblock.busy_frac",
        div (blk (fun b -> b.wait_ns)) (window_ns *. float_of_int (Array.length rig.blks)) );
      ( "ukblock.write_amplification",
        div (blk (fun b -> float_of_int (b.sectors_written * 512)))
          (float_of_int tally.acked_set_bytes) );
      ("ukstore.journal_records_per_commit", per_commit (store "journal_records"));
      ("ukstore.journal_bytes_per_commit", per_commit (store "journal_bytes"));
      ("ukstore.fsync_barriers_per_commit", per_commit (store "fsync_barriers"));
      ("ukstore.checkpoints", store "checkpoints");
      ("ukstore.cache_hit_frac", div (store "cache_hits") (store "cache_hits" +. store "cache_misses"));
      ("ukstore.tree_depth", store "tree_depth");
    ]
  in
  let split =
    match layers with
    | None -> []
    | Some l ->
        let server = Layers.split l (List.init n Fun.id) in
        let client = Layers.split l (List.init n (fun j -> n + j)) in
        let self cat =
          per_req (float_of_int (Option.value ~default:0 (List.assoc_opt cat server.layers)))
        in
        (* Busy over the load window; connection teardown after the last
           reply adds a few steps but no window time. *)
        let window_cycles = float_of_int n *. window_ns *. Uksim.Clock.ghz in
        [
          ("uksmp.server_busy_frac", div (float_of_int server.busy) window_cycles);
          ("client.busy_frac", div (float_of_int client.busy) window_cycles);
          ("uknetstack.self_cycles_per_req", self "uknetstack");
          ("ukalloc.self_cycles_per_req", self "ukalloc");
          ("ukapps.self_cycles_per_req", self "ukapps");
          ("ukblock.self_cycles_per_req", self "ukblock");
          ("unattributed.cycles_per_req", per_req (float_of_int server.unattributed));
        ]
  in
  { wall_s; hash; attempted = tally.attempted; failed; problems; virt; split }

(* --- one workload --------------------------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The first virtual metric (or the trace hash) on which [b] differs from [a]. *)
let divergence a b =
  if a.hash <> b.hash then Some "trace_hash"
  else
    List.find_map
      (fun ((k, x), (_, y)) -> if x <> y then Some k else None)
      (List.combine a.virt b.virt)

(* One workload's result, as printed, written to the BENCH file and read
   back by --agree. *)
type summary = {
  name : string;
  correct : bool;
  attempted : int;
  failed : int;
  hash : string;
  metrics : (string * float) list;  (** in print order *)
}

(* Set-up takes from 2 ms to 0.15 s, so it is timed on its own: rigs are
   built one after another, each from a collected heap and scaled by a
   probe run just before it, for at least [setup_samples] builds and
   [setup_budget_s] seconds; the median is reported. *)
let setup_samples = 8
let setup_budget_s = 0.5

let setup_time ~seed ~scale ~corrupt ~smoke shape =
  let t0 = now () in
  let rec go acc =
    if List.length acc >= (if smoke then 3 else setup_samples) && (smoke || now () -. t0 >= setup_budget_s)
    then median acc
    else begin
      Gc.full_major ();
      let probe_s = Probe.time Probe.kernel in
      let t = now () in
      ignore (setup ~seed ~scale ~corrupt ~spans:None shape);
      go (Probe.scale ~probe_s (now () -. t) :: acc)
    end
  in
  go []

let run_workload ~seed ~seconds ~trace ~smoke ~corrupt (shape : Rig.shape) =
  let spans = Spans.create () in
  let scale = if smoke then 0.01 else 1.0 in
  let run ~traced scale = run_rep ~seed ~scale ~corrupt ~traced shape ~spans in
  let warm = if smoke then [] else [ run ~traced:false (scale /. 10.0) ] in
  let t0 = now () in
  let first = run ~traced:false scale in
  (* Read after the first timed repetition, so the peak does not depend
     on how many repetitions fit in --seconds. *)
  let peak_heap_mib =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let rec timed acc =
    if List.length acc >= 3 && now () -. t0 >= seconds then List.rev acc
    else timed (run ~traced:false scale :: acc)
  in
  let reps = timed [ first ] in
  let traced = if trace then [ run ~traced:true scale ] else [] in
  let setup_s = setup_time ~seed ~scale ~corrupt ~smoke shape in
  let replay =
    List.filter_map
      (fun (what, r) ->
        Option.map
          (fun m -> Printf.sprintf "%s differs from the first repetition in %s" what m)
          (divergence first r))
      (List.mapi (fun i r -> (Printf.sprintf "repetition %d" (i + 2), r)) (List.tl reps)
      @ List.map (fun r -> ("the traced run", r)) traced)
  in
  let problems =
    List.sort_uniq compare (List.concat_map (fun (r : rep) -> r.problems) (warm @ reps @ traced))
  in
  let wall = median (List.map (fun r -> r.wall_s) reps) in
  let e2e =
    List.map
      (fun (name, _, _) ->
        ( name,
          match name with
          | "wall_s" -> wall
          | "setup_s" -> setup_s
          | "peak_heap_mb" -> peak_heap_mib
          | _ -> List.assoc name first.virt ))
      end_to_end
  in
  let layer =
    match traced with
    | [] -> []
    | tr :: _ ->
        List.map
          (fun (name, _) ->
            ( name,
              match name with
              | "uksim.wall_ns_per_step" -> div (wall *. 1e9) (List.assoc "uksmp.steps" first.virt)
              | "trace.overhead_frac" -> div tr.wall_s wall -. 1.0
              | _ -> (
                  match List.assoc_opt name tr.split with
                  | Some v -> v
                  | None -> List.assoc name tr.virt) ))
          per_layer
  in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 (reps @ traced) in
  if trace && not smoke then Spans.write spans (Printf.sprintf "TRACE_ukbench_%s.json" shape.name);
  ( {
      name = shape.name;
      correct = problems = [] && replay = [];
      attempted = total (fun r -> r.attempted);
      failed = total (fun r -> r.failed);
      hash = Printf.sprintf "%016x" first.hash;
      metrics = e2e @ layer;
    },
    problems @ replay )

(* --- output ---------------------------------------------------------------- *)

let metric_json key (m, v) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote key) (Json.num v)
    (Json.quote (unit_of m))

(* The last line of stdout: the end-to-end metrics, or with --trace the
   per-layer ones; keyed "workload.metric" when there are several
   workloads. *)
let result_line ~trace (ss : summary list) =
  let names = if trace then List.map fst per_layer else List.map (fun (n, _, _) -> n) end_to_end in
  let key s m = match ss with [ _ ] -> m | _ -> s.name ^ "." ^ m in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (List.for_all (fun s -> s.correct) ss)
    (List.fold_left (fun a s -> a + s.attempted) 0 ss)
    (List.fold_left (fun a s -> a + s.failed) 0 ss)
    (String.concat ", "
       (List.concat_map
          (fun s ->
            List.filter_map
              (fun (m, v) -> if List.mem m names then Some (metric_json (key s m) (m, v)) else None)
              s.metrics)
          ss))

let write_bench ~seed (ss : summary list) =
  let workload s =
    Printf.sprintf
      "  %s: {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"trace_hash\": %s, \"metrics\": {%s}}"
      (Json.quote s.name) s.correct s.attempted s.failed (Json.quote s.hash)
      (String.concat ", " (List.map (fun (m, v) -> metric_json m (m, v)) s.metrics))
  in
  let oc = open_out_bin "BENCH_ukbench.json" in
  Printf.fprintf oc "{\"seed\": %d, \"workloads\": {\n%s\n}}\n" seed
    (String.concat ",\n" (List.map workload ss));
  close_out oc

(* Run one workload in this process and print its lines. *)
let run_here ~seed ~seconds ~trace ~smoke ~corrupt shape =
  let s, problems = run_workload ~seed ~seconds ~trace ~smoke ~corrupt shape in
  List.iter (fun (m, v) -> Printf.printf "%s %s %s %s\n" s.name m (Json.num v) (unit_of m)) s.metrics;
  Printf.printf "%s trace_hash %s hash\n" s.name s.hash;
  List.iter (fun p -> Printf.printf "%s problem: %s\n" s.name p) problems;
  if not smoke then write_bench ~seed [ s ];
  print_endline (result_line ~trace [ s ]);
  s.correct

(* Read back what a child printed for one workload. *)
let summary_of_lines name ~exited_ok lines =
  let last =
    match List.rev lines with
    | l :: _ -> ( try Json.parse l with Json.Error _ -> Json.Null)
    | [] -> Json.Null
  in
  let count k = match Json.member k last with Json.Num f -> int_of_float f | _ -> 0 in
  let fields = List.map (String.split_on_char ' ') lines in
  {
    name;
    correct = exited_ok && Json.member "correct" last = Json.Bool true;
    attempted = count "attempted";
    failed = count "failed";
    hash =
      Option.value ~default:""
        (List.find_map (function [ _; "trace_hash"; h; _ ] -> Some h | _ -> None) fields);
    metrics =
      List.filter_map
        (function
          | [ _; m; v; _ ] when m <> "trace_hash" -> Option.map (fun f -> (m, f)) (float_of_string_opt v)
          | _ -> None)
        fields;
  }

(* Run every workload, each in a child process; echo the children's
   lines and gather them into one BENCH file. *)
let run_children ~seed ~trace ~smoke ~args =
  let ss =
    List.map
      (fun (shape : Rig.shape) ->
        let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--workload"; shape.name ]) in
        let ic = Unix.open_process_args_in Sys.executable_name argv in
        let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
        let exited_ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        List.iteri (fun i l -> if i < List.length lines - 1 then print_endline l) lines;
        summary_of_lines shape.name ~exited_ok lines)
      Rig.workloads
  in
  if not smoke then write_bench ~seed ss;
  print_endline (result_line ~trace ss);
  List.for_all (fun s -> s.correct) ss

(* --- --agree ----------------------------------------------------------------- *)

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them. *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then (median l, median l, median l)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, median l, q 3)

(* Each side is a comma-separated list of BENCH files: workload ->
   (trace hash, metrics) per file. *)
let load_side files =
  List.concat_map
    (fun f ->
      List.map
        (fun (w, o) ->
          ( w,
            ( Json.to_string (Json.member "trace_hash" o),
              List.map
                (fun (m, v) -> (m, Json.to_float (Json.member "value" v)))
                (Json.to_assoc (Json.member "metrics" o)) ) ))
        (Json.to_assoc (Json.member "workloads" (Json.of_file f))))
    (String.split_on_char ',' files)

(* Virtual metrics and trace hashes must be identical on both sides; a
   host metric agrees when the medians are within its bound, and is
   unresolved when they are not but either side spreads wider than it. *)
let agree a b =
  let bounds =
    List.map
      (fun m ->
        ( Json.to_string (Json.member "name" m),
          (Json.to_float (Json.member "bound" m), Json.to_string (Json.member "better" m)) ))
      (Json.to_list (Json.member "end_to_end" (Json.of_file "BENCHMARK.json")))
  in
  let sa = load_side a and sb = load_side b in
  let disagree = ref 0 in
  let report w m text verdict =
    if verdict = "disagree" then incr disagree;
    Printf.printf "%-12s %-16s %s  %s\n" w m text verdict
  in
  List.iter
    (fun (shape : Rig.shape) ->
      let side s = List.filter_map (fun (w, r) -> if w = shape.name then Some r else None) s in
      let ra = side sa and rb = side sb in
      if ra <> [] && rb <> [] then begin
        let hashes = List.sort_uniq compare (List.map fst (ra @ rb)) in
        report shape.name "trace_hash" (String.concat " " hashes)
          (if List.length hashes = 1 then "agree" else "disagree");
        List.iter
          (fun (name, (bound, better)) ->
            let vals r = List.filter_map (fun (_, ms) -> List.assoc_opt name ms) r in
            let va = vals ra and vb = vals rb in
            if va <> [] && vb <> [] then begin
              let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
              let worse = div (if better = "lower" then mb -. ma else ma -. mb) (Float.abs ma) in
              let spread =
                Float.max (div (qa3 -. qa1) (Float.abs ma)) (div (qb3 -. qb1) (Float.abs mb))
              in
              let verdict =
                if List.mem (name, unit_of name, Virtual) end_to_end then
                  if List.for_all (( = ) (List.hd va)) (va @ vb) then "agree" else "disagree"
                else if Float.abs worse <= bound then "agree"
                else if spread > bound then "unresolved"
                else "disagree"
              in
              report shape.name name
                (Printf.sprintf "A %s [%s, %s]  B %s [%s, %s]  B worse by %+.2f%% (bound %.0f%%)"
                   (Json.num ma) (Json.num qa1) (Json.num qa3) (Json.num mb) (Json.num qb1)
                   (Json.num qb3) (100.0 *. worse) (100.0 *. bound))
                verdict
            end)
          bounds
      end)
    Rig.workloads;
  !disagree = 0

(* --- command line ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: ukbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n\
    \       ukbench --agree A.json[,...] B.json[,...]";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 0.0 and trace = ref false in
  let smoke = ref false and corrupt = ref false and agree_files = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some s -> s | None -> usage ());
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    (* The smoke test's negative control: expect a corrupted page. *)
    | "--corrupt-expected" :: rest ->
        corrupt := true;
        parse rest
    | [ "--agree"; a; b ] -> agree_files := Some (a, b)
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ok =
    match (!agree_files, !workload) with
    | Some (a, b), _ -> agree a b
    | None, Some w -> (
        match List.find_opt (fun (s : Rig.shape) -> s.name = w) Rig.workloads with
        | Some shape ->
            run_here ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:!smoke ~corrupt:!corrupt shape
        | None ->
            prerr_endline ("unknown workload " ^ w);
            exit 2)
    | None, None ->
        let args =
          [ "--seed"; string_of_int !seed; "--seconds"; Json.num !seconds ]
          @ [ "--trace"; (if !trace then "1" else "0") ]
          @ (if !smoke then [ "--smoke" ] else [])
          @ if !corrupt then [ "--corrupt-expected" ] else []
        in
        run_children ~seed:!seed ~trace:!trace ~smoke:!smoke ~args
  in
  exit (if ok then 0 else 1)
