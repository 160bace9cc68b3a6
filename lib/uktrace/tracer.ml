(* Tracepoints on the virtual clock.

   Spans and instants carry a category (the owning subsystem), a core id
   and a cycle timestamp. Events land in a bounded ring (overflow drops
   the oldest), so tracing is always safe to leave on, and the
   innermost-open-span category is what the profiling sampler
   attributes stepped cycles to.

   Nothing here writes the clock or draws from an RNG: enabling tracing
   cannot perturb a simulation, which is what keeps trace_hash replay
   checks identical with tracing on and off. *)

type phase = B | E | I

type event = { ph : phase; ts : int; core : int; cat : string; name : string }

type frame = { fcat : string; fname : string; fstart : int }

type t = {
  capacity : int;
  mutable buf : event option array; (* empty until the first event *)
  mutable head : int; (* index of the oldest event *)
  mutable len : int;
  mutable dropped : int;
  mutable recorded : int;
  mutable spans_closed : int;
  mutable enabled : bool;
  stacks : (int, frame list ref) Hashtbl.t; (* core -> open spans, innermost first *)
  span_cycles : Metric.Histogram.t; (* distribution of span durations *)
  attrib : (string, int ref) Hashtbl.t; (* sampler: category -> cycles *)
  cores : (int, int ref) Hashtbl.t; (* sampler: core -> cycles *)
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    capacity;
    buf = [||];
    head = 0;
    len = 0;
    dropped = 0;
    recorded = 0;
    spans_closed = 0;
    enabled = false;
    stacks = Hashtbl.create 16;
    span_cycles = Metric.Histogram.create ();
    attrib = Hashtbl.create 16;
    cores = Hashtbl.create 16;
  }

let enabled t = t.enabled

let reset t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.recorded <- 0;
  t.spans_closed <- 0;
  Hashtbl.reset t.stacks;
  Metric.Histogram.reset t.span_cycles;
  Hashtbl.reset t.attrib;
  Hashtbl.reset t.cores

let set_enabled t on =
  if t.enabled && not on then Hashtbl.reset t.stacks (* abandon open spans *);
  t.enabled <- on

(* The ring is made on the first event, so a tracer that never records
   (the process-wide one, unless a run turns tracing on) costs no ring. *)
let push t e =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity None;
  t.recorded <- t.recorded + 1;
  if t.len < t.capacity then begin
    t.buf.((t.head + t.len) mod t.capacity) <- Some e;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.head) <- Some e;
    t.head <- (t.head + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end

let events t =
  List.init t.len (fun i ->
      match t.buf.((t.head + i) mod t.capacity) with Some e -> e | None -> assert false)

let dropped t = t.dropped
let recorded t = t.recorded
let spans_closed t = t.spans_closed

let stack_of t core =
  match Hashtbl.find_opt t.stacks core with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.replace t.stacks core s;
      s

let instant t ?(core = 0) ~cat ~ts name =
  if t.enabled then push t { ph = I; ts; core; cat; name }

let begin_span t ?(core = 0) ~cat ~ts name =
  if t.enabled then begin
    let s = stack_of t core in
    s := { fcat = cat; fname = name; fstart = ts } :: !s;
    push t { ph = B; ts; core; cat; name }
  end

let end_span t ?(core = 0) ~ts () =
  if t.enabled then begin
    let s = stack_of t core in
    match !s with
    | [] -> () (* unmatched end: ignore *)
    | f :: rest ->
        s := rest;
        Metric.Histogram.observe t.span_cycles (max 0 (ts - f.fstart));
        t.spans_closed <- t.spans_closed + 1;
        push t { ph = E; ts; core; cat = f.fcat; name = f.fname }
  end

let span t clock ?(core = 0) ~cat name f =
  if not t.enabled then f ()
  else begin
    begin_span t ~core ~cat ~ts:(Uksim.Clock.cycles clock) name;
    match f () with
    | v ->
        end_span t ~core ~ts:(Uksim.Clock.cycles clock) ();
        v
    | exception e ->
        end_span t ~core ~ts:(Uksim.Clock.cycles clock) ();
        raise e
  end

(* --- profiling sampler --------------------------------------------------- *)

let bump tbl key cycles =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + cycles
  | None -> Hashtbl.replace tbl key (ref cycles)

(* Called from the Uksim.Engine / Uksmp.Smp step observers with the
   cycles one step consumed: charge them to the innermost open span's
   category on that core (or "unattributed") and to the core itself. *)
let attribute t ~core ~cycles =
  if t.enabled && cycles > 0 then begin
    let cat =
      match Hashtbl.find_opt t.stacks core with
      | Some { contents = f :: _ } -> f.fcat
      | Some { contents = [] } | None -> "unattributed"
    in
    bump t.attrib cat cycles;
    bump t.cores core cycles
  end

let attribution t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.attrib []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let core_cycles t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.cores [] |> List.sort compare

(* --- Chrome trace_event export ------------------------------------------- *)

let us_of_cycles c = Uksim.Clock.ns_of_cycles c /. 1000.0

let chrome_event e =
  let common =
    Printf.sprintf "\"name\": \"%s\", \"cat\": \"%s\", \"ts\": %.3f, \"pid\": 0, \"tid\": %d"
      e.name e.cat (us_of_cycles e.ts) e.core
  in
  match e.ph with
  | B -> Printf.sprintf "{\"ph\": \"B\", %s}" common
  | E -> Printf.sprintf "{\"ph\": \"E\", %s}" common
  | I -> Printf.sprintf "{\"ph\": \"i\", \"s\": \"t\", %s}" common

let to_chrome_json t =
  let evs = List.map chrome_event (events t) in
  Printf.sprintf
    "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n%s\n]}\n"
    (String.concat ",\n" evs)

(* --- integration --------------------------------------------------------- *)

let default = create ()

let source t =
  Source.make ~subsystem:"uktrace" ~name:"tracer" ~reset:(fun () -> reset t) (fun () ->
      [
        ("events", Metric.Count t.recorded);
        ("ring_dropped", Metric.Count t.dropped);
        ("spans", Metric.Count t.spans_closed);
        ("span_cycles", Metric.Histogram.value t.span_cycles);
      ]
      @ List.map (fun (cat, c) -> ("cycles." ^ cat, Metric.Count c)) (attribution t)
      @ List.map
          (fun (core, c) -> (Printf.sprintf "core%d.cycles" core, Metric.Count c))
          (core_cycles t))

let register_source t = Registry.register ~sticky:true (source t)
