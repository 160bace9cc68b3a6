(* The experiment harness core: a single registration API for every
   experiment, plus the uktrace plumbing that gives each run a metrics
   section in its BENCH_<group>.json.

   Experiment files call [register] (or [register_exp] on a record) at
   startup; [main] owns --list / --only / --micro, runs the selection,
   and writes one BENCH_<group>.json per group touched. Inside a run,
   experiments use [emit] to add result fields to their JSON object,
   [gate] and [replay] to declare pass/fail checks next to the
   measurement (they land in the object's "gates" section, and [main]
   exits 1 naming every false gate, every experiment that raised and
   every negative count in a metrics window),
   [phase] to bracket a measurement window with a registry diff, and
   [trial] to mark a repetition boundary (clears instance sources and
   resets survivors, so counters never leak between trials).

   UKRAFT_TRACE=1 additionally enables the default tracer and writes a
   Chrome trace_event file TRACE_<id>.json per experiment. *)

type experiment = { id : string; group : string; descr : string; run : unit -> unit }

let experiments : experiment list ref = ref [] (* newest first *)

let register ~id ~group ~descr run =
  experiments := { id; group; descr; run } :: !experiments

let register_exp e = experiments := e :: !experiments
let all () = List.rev !experiments

(* Scale factor for request counts: UKRAFT_FAST=1 shrinks workloads for
   smoke runs. *)
let fast = try Sys.getenv "UKRAFT_FAST" = "1" with Not_found -> false
let scaled n = if fast then max 100 (n / 20) else n

let tracing = try Sys.getenv "UKRAFT_TRACE" = "1" with Not_found -> false

(* --- per-experiment state ---------------------------------------------- *)

type state = {
  mutable emits : (string * string) list; (* key -> raw JSON, newest first *)
  mutable gates : (string * bool) list; (* newest first *)
  mutable phases : (string * Uktrace.Registry.snapshot) list; (* newest first *)
}

let cur : state option ref = ref None

let emit key json =
  match !cur with Some s -> s.emits <- (key, json) :: s.emits | None -> ()

let emit_i key v = emit key (string_of_int v)
let emit_f ?(fmt = format_of_string "%.3f") key v = emit key (Printf.sprintf fmt v)
let emit_b key v = emit key (if v then "true" else "false")
let emit_s key v = emit key (Printf.sprintf "\"%s\"" (String.escaped v))

let gate name ok =
  match !cur with Some s -> s.gates <- (name, ok) :: s.gates | None -> ()

(* A replay fingerprint: named fields, each printed exactly. *)
type fingerprint = (string * string) list

let fp_i name v = (name, string_of_int v)
let fp_f name v = (name, Printf.sprintf "%h" v)

(* [first] is the fingerprint of a seeded run; [rerun] repeats that run
   once with the default tracer enabled. Tracing must not move a cycle,
   so the one rerun checks determinism and tracer invisibility
   together. *)
let replay name ~(first : fingerprint) (rerun : unit -> fingerprint) =
  let tracer = Uktrace.Tracer.default in
  let was = Uktrace.Tracer.enabled tracer in
  Uktrace.Tracer.set_enabled tracer true;
  let again =
    Fun.protect rerun ~finally:(fun () ->
        Uktrace.Tracer.set_enabled tracer was;
        if not was then Uktrace.Tracer.reset tracer)
  in
  let rec diverge = function
    | [], [] -> None
    | (k, a) :: rest, (k', b) :: rest' when k = k' ->
        if a = b then diverge (rest, rest') else Some (k, a, b)
    | (k, a) :: _, _ -> Some (k, a, "<absent>")
    | [], (k, b) :: _ -> Some (k, "<absent>", b)
  in
  let name = name ^ "_replay" in
  match diverge (first, again) with
  | None ->
      Printf.printf "  %s: %d-field fingerprint identical (rerun traced)\n" name
        (List.length first);
      gate name true
  | Some (k, a, b) ->
      Printf.printf "  %s: MISMATCH at %s: %s (first run) vs %s (traced rerun)\n" name k a b;
      gate name false

let trial () =
  Uktrace.Registry.clear ();
  Uktrace.Registry.reset ()

let phase name f =
  match !cur with
  | None -> f ()
  | Some s ->
      let before = Uktrace.Registry.snapshot () in
      Fun.protect f ~finally:(fun () ->
          let after = Uktrace.Registry.snapshot () in
          let d = Uktrace.Registry.(prune (diff ~before ~after)) in
          s.phases <- (name, d) :: s.phases)

(* --- running ------------------------------------------------------------ *)

type result = {
  rid : string;
  rgroup : string;
  rseconds : float;
  rfailed : string option;
  remits : (string * string) list; (* oldest first *)
  rgates : (string * bool) list; (* oldest first *)
  rphases : (string * Uktrace.Registry.snapshot) list; (* oldest first *)
  rtotal : Uktrace.Registry.snapshot;
}

let run_one e =
  Printf.printf "\n=== %s: %s ===\n" e.id e.descr;
  let s = { emits = []; gates = []; phases = [] } in
  cur := Some s;
  trial ();
  if tracing then Uktrace.Tracer.(reset default);
  let before = Uktrace.Registry.snapshot () in
  let t0 = Unix.gettimeofday () in
  let failed =
    try
      e.run ();
      None
    with exn ->
      let msg = Printexc.to_string exn in
      Printf.printf "!! experiment %s failed: %s\n" e.id msg;
      Some msg
  in
  let dt = Unix.gettimeofday () -. t0 in
  let after = Uktrace.Registry.snapshot () in
  cur := None;
  if tracing then begin
    let fname = Printf.sprintf "TRACE_%s.json" e.id in
    let oc = open_out fname in
    output_string oc (Uktrace.Tracer.(to_chrome_json default));
    close_out oc;
    Printf.printf "[wrote %s]\n" fname
  end;
  Printf.printf "[%s done in %.1fs]\n%!" e.id dt;
  {
    rid = e.id;
    rgroup = e.group;
    rseconds = dt;
    rfailed = failed;
    remits = List.rev s.emits;
    rgates = List.rev s.gates;
    rphases = List.rev s.phases;
    rtotal = Uktrace.Registry.(prune (diff ~before ~after));
  }

(* --- JSON output -------------------------------------------------------- *)

let write_group_file group results =
  let fname = Printf.sprintf "BENCH_%s.json" group in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"group\": \"%s\",\n" group);
  Buffer.add_string b (Printf.sprintf "  \"fast\": %b,\n" fast);
  Buffer.add_string b "  \"experiments\": {\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string b (Printf.sprintf "    \"%s\": {\n" (String.escaped r.rid));
      let scalar k v =
        Buffer.add_string b (Printf.sprintf "      \"%s\": %s,\n" (String.escaped k) v)
      in
      scalar "seconds" (Printf.sprintf "%.2f" r.rseconds);
      (match r.rfailed with
      | Some msg -> scalar "failed" (Printf.sprintf "\"%s\"" (String.escaped msg))
      | None -> ());
      List.iter (fun (k, v) -> scalar k v) r.remits;
      if r.rgates <> [] then
        scalar "gates"
          (Printf.sprintf "{\n%s\n      }"
             (String.concat ",\n"
                (List.map
                   (fun (g, ok) -> Printf.sprintf "        \"%s\": %b" (String.escaped g) ok)
                   r.rgates)));
      Buffer.add_string b "      \"metrics\": {\n";
      Buffer.add_string b
        (Printf.sprintf "        \"total\": %s" (Uktrace.Registry.to_json ~indent:8 r.rtotal));
      List.iter
        (fun (pn, pd) ->
          Buffer.add_string b
            (Printf.sprintf ",\n        \"%s\": %s" (String.escaped pn)
               (Uktrace.Registry.to_json ~indent:8 pd)))
        r.rphases;
      Buffer.add_string b "\n      }\n";
      Buffer.add_string b (if i = last then "    }\n" else "    },\n"))
    results;
  Buffer.add_string b "  }\n}\n";
  let oc = open_out fname in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "[wrote %s]\n%!" fname

(* A count that falls inside a window is a counting bug, never a
   measurement: "<exp>.<window>.<source>.<sample>" for each one. *)
let negative_counts r =
  let negative = function
    | Uktrace.Metric.Count n -> n < 0
    | Uktrace.Metric.Buckets b -> Array.exists (fun n -> n < 0) b
    | Uktrace.Metric.Level _ -> false
  in
  List.concat_map
    (fun (window, snap) ->
      List.concat_map
        (fun (e : Uktrace.Registry.entry_snap) ->
          List.filter_map
            (fun (name, v) ->
              if negative v then Some (Printf.sprintf "%s.%s.%s.%s" r.rid window e.suid name)
              else None)
            e.samples)
        snap)
    (("total", r.rtotal) :: r.rphases)

(* --- entry point -------------------------------------------------------- *)

let print_experiments oc =
  List.iter
    (fun e -> Printf.fprintf oc "%-12s %-10s %s\n" e.id e.group e.descr)
    (all ())

let main ?micro () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let value flag =
    let rec go = function
      | a :: v :: _ when a = flag -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  if has "--list" then print_experiments stdout
  else begin
    let selection =
      match value "--only" with
      | Some key -> (
          match List.filter (fun e -> e.id = key || e.group = key) (all ()) with
          | [] ->
              Printf.eprintf "unknown experiment or group %s; available experiments:\n" key;
              print_experiments stderr;
              let groups =
                List.fold_left
                  (fun acc e -> if List.mem e.group acc then acc else acc @ [ e.group ])
                  [] (all ())
              in
              Printf.eprintf "available groups: %s\n" (String.concat " " groups);
              exit 1
          | sel -> sel)
      | None ->
          Printf.printf
            "ukraft experiment harness - reproducing the Unikraft paper (EuroSys'21)\n";
          Printf.printf "fast mode: %b (set UKRAFT_FAST=1 to shrink workloads)\n" fast;
          all ()
    in
    if tracing then begin
      Uktrace.Tracer.(set_enabled default true);
      Uktrace.Tracer.(register_source default)
    end;
    let results = List.map run_one selection in
    let groups =
      List.fold_left
        (fun acc r -> if List.mem r.rgroup acc then acc else acc @ [ r.rgroup ])
        [] results
    in
    List.iter
      (fun g -> write_group_file g (List.filter (fun r -> r.rgroup = g) results))
      groups;
    if has "--micro" then (match micro with Some f -> f () | None -> ());
    let failures =
      List.concat_map
        (fun r ->
          (match r.rfailed with
          | Some msg -> [ Printf.sprintf "experiment %s raised: %s" r.rid msg ]
          | None -> [])
          @ List.filter_map
              (fun (g, ok) -> if ok then None else Some (Printf.sprintf "gate %s.%s" r.rid g))
              r.rgates
          @ List.map (fun s -> "negative count " ^ s) (negative_counts r))
        results
    in
    let gates = List.fold_left (fun n r -> n + List.length r.rgates) 0 results in
    if failures = [] then (if gates > 0 then Printf.printf "[%d gates passed]\n" gates)
    else begin
      List.iter (Printf.printf "FAIL: %s\n") failures;
      exit 1
    end
  end
