(* The global metrics registry.

   Subsystems register a Source.t per instance at creation time (a stack,
   a spinlock, an allocator...); harnesses take uniform snapshots, diff
   them across measurement windows, reset everything between trials, and
   export JSON. A single global registry matches how the stats are used:
   one simulated machine per process at a time, with [clear] as the
   trial boundary.

   Sticky sources (the tracer, process-wide metric groups) survive
   [clear]; instance sources do not — their objects are recreated each
   trial anyway, and dropping the old closures lets the dead instances be
   collected. *)

type entry = { src : Source.t; uid : string; sticky : bool; gen : int }

let max_sources = 4096

type state = {
  mutable entries : entry list; (* newest first *)
  mutable gen : int; (* bumped by [clear] and [reset]: no diff spans either *)
  seen : (string, int) Hashtbl.t; (* base id -> #instances, for unique uids *)
}

let st = { entries = []; gen = 0; seen = Hashtbl.create 64 }

let unique_id base =
  match Hashtbl.find_opt st.seen base with
  | None ->
      Hashtbl.replace st.seen base 1;
      base
  | Some n ->
      Hashtbl.replace st.seen base (n + 1);
      Printf.sprintf "%s#%d" base (n + 1)

let register ?(sticky = false) src =
  if List.length st.entries < max_sources then
    st.entries <-
      { src; uid = unique_id (Source.id src); sticky; gen = st.gen } :: st.entries

let clear () =
  st.entries <- List.filter (fun e -> e.sticky) st.entries;
  st.gen <- st.gen + 1;
  Hashtbl.reset st.seen;
  (* Re-seed uid dedup with the survivors. *)
  List.iter (fun e -> Hashtbl.replace st.seen e.uid 1) st.entries

(* A reset also renews every generation: a window that spans it keeps the
   post-reset readings instead of subtracting across the zeroing. *)
let reset () =
  List.iter (fun e -> e.src.Source.reset ()) st.entries;
  st.gen <- st.gen + 1;
  st.entries <- List.map (fun (e : entry) -> { e with gen = st.gen }) st.entries

let sources () = List.rev_map (fun e -> e.src) st.entries

(* --- metric groups ------------------------------------------------------- *)

(* A group is a source whose samples are metric cells it owns, listed in
   creation order. Its closures see only the cells, so a registered group
   never keeps the component that bumps them alive. *)

type metric = C of Metric.Counter.t | G of Metric.Gauge.t | H of Metric.Histogram.t
type group = { gsrc : Source.t; cells : (string * metric) list ref (* newest first *) }

let group ?sticky ~subsystem name =
  let cells = ref [] in
  let gsrc =
    Source.make ~subsystem ~name
      ~reset:(fun () ->
        List.iter
          (function
            | _, C c -> Metric.Counter.reset c
            | _, G g -> Metric.Gauge.reset g
            | _, H h -> Metric.Histogram.reset h)
          !cells)
      (fun () ->
        List.rev_map
          (function
            | n, C c -> (n, Metric.Counter.value c)
            | n, G g -> (n, Metric.Gauge.value g)
            | n, H h -> (n, Metric.Histogram.value h))
          !cells)
  in
  register ?sticky gsrc;
  { gsrc; cells }

let source g = g.gsrc
let add g name m = g.cells := (name, m) :: !(g.cells)

let counter g name =
  let c = Metric.Counter.create () in
  add g name (C c);
  c

let gauge g name =
  let x = Metric.Gauge.create () in
  add g name (G x);
  x

let histogram g name =
  let h = Metric.Histogram.create () in
  add g name (H h);
  h

(* --- snapshots ---------------------------------------------------------- *)

type entry_snap = { suid : string; sgen : int; samples : Source.sample list }
type snapshot = entry_snap list

let snapshot () =
  List.rev_map
    (fun e -> { suid = e.uid; sgen = e.gen; samples = e.src.Source.snapshot () })
    st.entries

let diff ~before ~after =
  List.map
    (fun e ->
      (* Subtract only when the uid denotes the SAME registration — a
         [clear] in between means the uid was reused by a new instance
         whose counters started from zero. *)
      match List.find_opt (fun b -> b.suid = e.suid && b.sgen = e.sgen) before with
      | None -> e
      | Some old ->
          { e with
            samples =
              List.map
                (fun (n, v) ->
                  match List.assoc_opt n old.samples with
                  | None -> (n, v)
                  | Some b -> (n, Metric.diff_value ~before:b ~after:v))
                e.samples })
    after

let is_empty_sample = function
  | Metric.Count 0 -> true
  | Metric.Level v -> v = 0.0
  | Metric.Buckets b -> Array.for_all (fun n -> n = 0) b
  | Metric.Count _ -> false

let prune snap =
  List.filter_map
    (fun e ->
      match List.filter (fun (_, v) -> not (is_empty_sample v)) e.samples with
      | [] -> None
      | kept -> Some { e with samples = kept })
    snap

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ?(indent = 0) snap =
  let pad = String.make indent ' ' in
  let source_json e =
    Printf.sprintf "%s  \"%s\": {%s}" pad (escape e.suid)
      (String.concat ", "
         (List.map
            (fun (n, v) -> Printf.sprintf "\"%s\": %s" (escape n) (Metric.value_to_json v))
            e.samples))
  in
  if snap = [] then "{}"
  else Printf.sprintf "{\n%s\n%s}" (String.concat ",\n" (List.map source_json snap)) pad

let find snap uid =
  Option.map (fun e -> e.samples) (List.find_opt (fun e -> e.suid = uid) snap)

let find_sample snap uid name =
  Option.bind (find snap uid) (fun samples -> List.assoc_opt name samples)
