(* The traced run's per-layer cycle split, per simulated core.

   Library spans do not all carry the core they run on (the netstack's
   rx_burst and the allocator's spans land on core 0's lane), so the
   tracer's own flamegraph mixes cores. Instead, a step observer records
   which core each coordinator step ran on and how many tracer events it
   recorded; the events are read back from the tracer's ring before it
   can wrap and replayed onto per-core span stacks. A span's self cycles
   are its duration minus its children's; they are charged to the span's
   category, the layer that owns it. Step cycles under no span are
   "unattributed", and the clock jump an idle core makes to its next event
   is "idle". *)

module Tr = Uktrace.Tracer

type frame = {
  cat : string;
  name : string;
  seq : int;
  start : int;
  mutable child : int;  (** cycles inside child spans *)
  mutable blk : bool;  (** a ukblock span ran under this one *)
}

type core = {
  mutable open_ : frame list;  (** innermost first *)
  self : (string, int ref) Hashtbl.t;
  mutable top : int;  (** cycles inside outermost spans *)
  mutable stepped : int;
  mutable idle : int;
  mutable seq : int;
  clock0 : int;
  ipis0 : int;
}

type t = {
  smp : Uksmp.Smp.t;
  cores : core array;
  was_ready : bool array;  (** whether each core had a ready thread after the last step *)
  last_work : int array;  (** cycles of the outermost engine callback in this step, or -1 *)
  mutable marks : (int * int) list;
      (** (events recorded by the end of a step, that step's core), newest first *)
  mutable last_recorded : int;
  mutable drained : int;
  mutable errors : string list;
  spans : Spans.t;
}

(* The tracer's ring holds 65536 events; read it back at half that. *)
let drain_every = 32768

let error t e = if not (List.mem e t.errors) then t.errors <- e :: t.errors

let ns c = Uksim.Clock.ns_of_cycles c

let emit t ~core (f : frame) ~parent ~stop =
  Spans.add t.spans ~cat:f.cat ~name:f.name
    ~id:(Printf.sprintf "%s:%d:%d" f.name core f.seq)
    ~parent ~tid:core ~start_ns:(ns f.start) ~end_ns:(ns stop)

let handle t core (e : Tr.event) =
  let c = t.cores.(core) in
  match e.ph with
  | Tr.B ->
      c.seq <- c.seq + 1;
      c.open_ <-
        { cat = e.cat; name = e.name; seq = c.seq; start = e.ts; child = 0; blk = false } :: c.open_
  | Tr.E -> (
      match c.open_ with
      | [] -> error t "a span ended that never began"
      | f :: rest ->
          c.open_ <- rest;
          if f.cat <> e.cat then error t "a span ended out of order";
          let dur = e.ts - f.start in
          let self = dur - f.child in
          if self < 0 then error t "child spans outlast their parent";
          (match Hashtbl.find_opt c.self f.cat with
          | Some r -> r := !r + self
          | None -> Hashtbl.replace c.self f.cat (ref self));
          (match rest with p :: _ -> p.child <- p.child + dur | [] -> c.top <- c.top + dur);
          (* Every block-device span is kept, under the server span (the
             COMMIT in flight) that issued it. *)
          if f.cat = "ukblock" then begin
            let parent =
              match rest with
              | p :: _ ->
                  p.blk <- true;
                  Printf.sprintf "%s:%d:%d" p.name core p.seq
              | [] -> ""
            in
            emit t ~core f ~parent ~stop:e.ts
          end
          else if f.blk then emit t ~core f ~parent:"" ~stop:e.ts)
  | Tr.I -> ()

let step_closed t core = if t.cores.(core).open_ <> [] then error t "a span stayed open across steps"

let drain t =
  let evs = Tr.events Tr.default in
  let recorded = Tr.recorded Tr.default in
  let first = recorded - List.length evs in
  if t.drained < first then error t "the tracer ring wrapped before it was read";
  let marks = Array.of_list (List.rev t.marks) in
  t.marks <- [];
  let mi = ref 0 in
  List.iteri
    (fun i e ->
      let g = first + i in
      if g >= t.drained then begin
        while !mi < Array.length marks && fst marks.(!mi) <= g do
          step_closed t (snd marks.(!mi));
          incr mi
        done;
        if !mi < Array.length marks then handle t (snd marks.(!mi)) e
        else error t "an event was recorded outside a step"
      end)
    evs;
  Array.iteri (fun i (_, core) -> if i >= !mi then step_closed t core) marks;
  t.drained <- recorded

let note_ready t =
  Array.iteri
    (fun k _ -> t.was_ready.(k) <- Uksched.Sched.runnable (Uksmp.Smp.sched_of t.smp ~core:k) > 0)
    t.was_ready

let step t ~core ~cycles =
  Tr.attribute Tr.default ~core ~cycles;
  let c = t.cores.(core) in
  c.stepped <- c.stepped + cycles;
  (* A step on a core with no ready thread runs one engine event, after
     jumping the clock to it; the outermost callback's work is the last
     the engine observer reported. *)
  if (not t.was_ready.(core)) && t.last_work.(core) >= 0 then
    c.idle <- c.idle + cycles - t.last_work.(core);
  t.last_work.(core) <- -1;
  note_ready t;
  let r = Tr.recorded Tr.default in
  if r > t.last_recorded then begin
    t.marks <- (r, core) :: t.marks;
    t.last_recorded <- r;
    if r - t.drained >= drain_every then drain t
  end

(* Start accounting: call with every core aligned, just before the run,
   and feed {!step} every coordinator step. *)
let attach smp spans =
  let n = Uksmp.Smp.n_cores smp in
  let t =
    {
      smp;
      cores =
        Array.init n (fun k ->
            { open_ = []; self = Hashtbl.create 8; top = 0; stepped = 0; idle = 0; seq = 0;
              clock0 = Uksim.Clock.cycles (Uksmp.Smp.clock_of smp ~core:k);
              ipis0 = (Uksmp.Smp.stats smp ~core:k).Uksmp.Smp.ipis });
      was_ready = Array.make n false;
      last_work = Array.make n (-1);
      marks = [];
      last_recorded = 0;
      drained = 0;
      errors = [];
      spans;
    }
  in
  Tr.reset Tr.default;
  Tr.set_enabled Tr.default true;
  for k = 0 to n - 1 do
    Uksim.Engine.set_observer (Uksmp.Smp.engine_of smp ~core:k) (Some (fun w -> t.last_work.(k) <- w))
  done;
  note_ready t;
  t

type split = {
  layers : (string * int) list;  (** layer -> self cycles, over the cores asked for *)
  unattributed : int;
  busy : int;
}

(* Stop accounting and check, core by core, that the layers' self
   cycles, the unattributed and idle cycles, and the IPI deliveries other
   cores charged here add up to the cycles the core's clock advanced. *)
let finish t =
  Tr.set_enabled Tr.default false;
  drain t;
  Array.iteri (fun k _ -> Uksim.Engine.set_observer (Uksmp.Smp.engine_of t.smp ~core:k) None) t.cores;
  Array.iteri
    (fun k c ->
      let self = Hashtbl.fold (fun _ r acc -> acc + !r) c.self 0 in
      let unattributed = c.stepped - c.idle - c.top in
      let remote = ((Uksmp.Smp.stats t.smp ~core:k).Uksmp.Smp.ipis - c.ipis0) * Uksim.Cost.ipi in
      let total = Uksim.Clock.cycles (Uksmp.Smp.clock_of t.smp ~core:k) - c.clock0 in
      if self + unattributed + c.idle + remote <> total then
        error t
          (Printf.sprintf "core %d: layers %d + unattributed %d + idle %d + ipi %d <> %d cycles" k self
             unattributed c.idle remote total))
    t.cores;
  List.rev t.errors

let split t cores =
  let self = Hashtbl.create 8 in
  let unattributed = ref 0 and busy = ref 0 in
  List.iter
    (fun k ->
      let c = t.cores.(k) in
      Hashtbl.iter
        (fun cat r ->
          Hashtbl.replace self cat (!r + Option.value ~default:0 (Hashtbl.find_opt self cat)))
        c.self;
      unattributed := !unattributed + c.stepped - c.idle - c.top;
      busy := !busy + c.stepped - c.idle)
    cores;
  { layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] |> List.sort compare;
    unattributed = !unattributed; busy = !busy }
