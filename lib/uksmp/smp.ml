(* Multicore simulation substrate.

   Everything stays sequential OCaml: a "core" is a (clock, engine,
   cooperative scheduler) triple, and the coordinator interleaves
   single-steps across cores in virtual-time order — conservative
   discrete-event simulation with one local clock per core, all counting
   cycles since boot on a shared absolute axis. The core whose next
   possible action is earliest always runs next (ties to the lowest id),
   so a run is a deterministic function of the workload and core count.
   A thread never leaves the core it was spawned on. *)

type cstats = { steps : int; ipis : int }

module C = Uktrace.Metric.Counter

(* The counters are cells of the "uksmp.cores" metric group, so the
   registered source holds them and never the domain. *)
type core = {
  id : int;
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t;
  c_steps : C.t;
  c_ipis : C.t;
}

type decision = { kind : string; arity : int; choice : int }

type t = {
  cores : core array;
  group : Uksched.Sched.group;
  mutable running : int option;
  mutable trace : int;
  mutable step_observer : (core:int -> cycles:int -> unit) option;
  mutable decider : (kind:string -> arity:int -> int) option;
  mutable decision_log : decision list; (* newest first *)
  mutable wake_observer : (src:int -> dst:int -> unit) option;
}

let n_cores t = Array.length t.cores
let set_step_observer t f = t.step_observer <- f
let set_wake_observer t f = t.wake_observer <- f
let sched_of t ~core = t.cores.(core).sched
let clock_of t ~core = t.cores.(core).clock
let engine_of t ~core = t.cores.(core).engine
let current_core t = t.running
let group t = t.group

let set_decider t f =
  t.decider <- f;
  t.decision_log <- []

let decisions t = List.rev t.decision_log

(* Route a choice point through the installed decider and log the outcome.
   Only called when [arity >= 2]: forced choices are not decisions, so
   recording and replay skip them identically. Without a decider the
   default (choice 0) applies and nothing is logged. *)
let decide t ~kind ~arity =
  if arity < 2 then 0
  else
    match t.decider with
    | None -> 0
    | Some f ->
        let c = f ~kind ~arity in
        let c = if c < 0 || c >= arity then 0 else c in
        t.decision_log <- { kind; arity; choice = c } :: t.decision_log;
        c

let stats t ~core =
  let c = t.cores.(core) in
  { steps = C.get c.c_steps; ipis = C.get c.c_ipis }

let core_of_sched t s =
  let found = ref None in
  Array.iter (fun c -> if c.sched == s then found := Some c) t.cores;
  !found

let create ~cores () =
  if cores <= 0 then invalid_arg "Smp.create: cores must be positive";
  let group = Uksched.Sched.create_group () in
  let g = Uktrace.Registry.group ~subsystem:"uksmp" "cores" in
  let counter id what = Uktrace.Registry.counter g (Printf.sprintf "core%d.%s" id what) in
  let mk id =
    let clock = Uksim.Clock.create () in
    let engine = Uksim.Engine.create clock in
    let sched = Uksched.Sched.create_cooperative ~clock ~engine in
    Uksched.Sched.join_group group sched;
    let c_steps = counter id "steps" in
    let c_ipis = counter id "ipis" in
    { id; clock; engine; sched; c_steps; c_ipis }
  in
  let t =
    {
      cores = Array.init cores mk;
      group;
      running = None;
      trace = 0;
      step_observer = None;
      decider = None;
      decision_log = [];
      wake_observer = None;
    }
  in
  (* A wake that crosses cores is an IPI: the destination pays delivery. *)
  Uksched.Sched.set_remote_wake group
    (Some
       (fun ~src ~dst ->
         match core_of_sched t dst with
         | Some c -> (
             Uksim.Clock.advance c.clock Uksim.Cost.ipi;
             C.incr c.c_ipis;
             match t.wake_observer with
             | Some f ->
                 let s = match core_of_sched t src with Some sc -> sc.id | None -> -1 in
                 f ~src:s ~dst:c.id
             | None -> ())
         | None -> ()));
  t

let trace_hash t = t.trace

let elapsed_ns t =
  Array.fold_left (fun acc c -> Stdlib.max acc (Uksim.Clock.ns c.clock)) 0.0 t.cores

(* Earliest time [c] could act: now if it has a ready thread, else its
   next event (no earlier than its local present), else never. *)
let next_action c =
  if Uksched.Sched.runnable c.sched > 0 then Some (Uksim.Clock.cycles c.clock)
  else
    match Uksim.Engine.next_at c.engine with
    | Some cyc -> Some (Stdlib.max cyc (Uksim.Clock.cycles c.clock))
    | None -> None

let run t =
  let rec loop () =
    let best = ref None in
    Array.iter
      (fun c ->
        match (next_action c, !best) with
        | Some at, Some (bat, _) when at < bat -> best := Some (at, c)
        | Some at, None -> best := Some (at, c)
        | Some _, Some _ | None, _ -> ())
      t.cores;
    (* Cores tied for the earliest action are a per-core step-order
       decision point (default: lowest id, i.e. the first tied core). *)
    (match (!best, t.decider) with
    | Some (bat, _), Some _ ->
        let tied =
          Array.to_list t.cores |> List.filter (fun c -> next_action c = Some bat)
        in
        if List.length tied >= 2 then
          best :=
            Some (bat, List.nth tied (decide t ~kind:"step_core" ~arity:(List.length tied)))
    | (Some _ | None), _ -> ());
    match !best with
    | Some (_, c) ->
        t.running <- Some c.id;
        let c0 = Uksim.Clock.cycles c.clock in
        let progressed = Uksched.Sched.step c.sched in
        t.running <- None;
        if progressed then begin
          C.incr c.c_steps;
          t.trace <- Uksim.Rng.mix (Uksim.Rng.mix t.trace c.id) (Uksim.Clock.cycles c.clock);
          match t.step_observer with
          | Some obs -> obs ~core:c.id ~cycles:(Uksim.Clock.cycles c.clock - c0)
          | None -> ()
        end;
        loop ()
    | None -> (
        let stuck =
          Array.fold_left (fun acc c -> acc @ Uksched.Sched.stuck c.sched) [] t.cores
        in
        match stuck with [] -> () | names -> raise (Uksched.Sched.Deadlock names))
  in
  loop ()
