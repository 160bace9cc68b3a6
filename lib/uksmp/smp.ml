(* Multicore simulation substrate.

   Everything stays sequential OCaml: a "core" is a (clock, engine,
   cooperative scheduler) triple, and the coordinator interleaves
   single-steps across cores in virtual-time order — conservative
   discrete-event simulation with one local clock per core, all counting
   cycles since boot on a shared absolute axis. The core whose next
   possible action is earliest always runs next (ties to the lowest id),
   so a run is a deterministic function of the seed and core count. *)

type cstats = { steps : int; steals : int; stolen_from : int; ipis : int }

module C = Uktrace.Metric.Counter

(* The counters are cells of the "uksmp.cores" metric group, so the
   registered source holds them and never the domain. *)
type core = {
  id : int;
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t;
  c_steps : C.t;
  c_steals : C.t;
  c_stolen_from : C.t;
  c_ipis : C.t;
}

type decision = { kind : string; arity : int; choice : int }

type t = {
  cores : core array;
  rng : Uksim.Rng.t;
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
  {
    steps = C.get c.c_steps;
    steals = C.get c.c_steals;
    stolen_from = C.get c.c_stolen_from;
    ipis = C.get c.c_ipis;
  }

let core_of_sched t s =
  let found = ref None in
  Array.iter (fun c -> if c.sched == s then found := Some c) t.cores;
  !found

let create ?(seed = 1) ~cores () =
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
    let c_steals = counter id "steals" in
    let c_stolen_from = counter id "stolen_from" in
    let c_ipis = counter id "ipis" in
    { id; clock; engine; sched; c_steps; c_steals; c_stolen_from; c_ipis }
  in
  let t =
    {
      cores = Array.init cores mk;
      rng = Uksim.Rng.create (seed lxor 0x534d50 (* "SMP" *));
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

let spawn_on t ~core ?name ?(pinned = false) f =
  Uksched.Sched.spawn t.cores.(core).sched ?name ~pinned f

let charge t cycles =
  match t.running with
  | Some i -> Uksim.Clock.advance t.cores.(i).clock cycles
  | None -> invalid_arg "Smp.charge: no core is running"

let mix = Uksim.Rng.mix

let trace_hash t = t.trace

let elapsed_ns t =
  Array.fold_left (fun acc c -> Stdlib.max acc (Uksim.Clock.ns c.clock)) 0.0 t.cores

(* When a core has nothing at all to do, it tries to poach the oldest
   ready unpinned thread from a random victim that has work to spare.
   The thief's clock jumps to the victim's present (it cannot run state
   it has not yet seen) plus the cache-refill penalty of migration. *)
let try_steal t thief =
  let candidates =
    Array.of_list
      (List.filter
         (fun c -> c.id <> thief.id && Uksched.Sched.runnable c.sched >= 2)
         (Array.to_list t.cores))
  in
  Array.length candidates > 0
  && begin
       (* Victim selection is a schedule decision point: the default draws
          from the seeded RNG; with a decider installed (ukcheck) the
          choice is external and logged for replay. *)
       let victim =
         match t.decider with
         | None -> Uksim.Rng.choose t.rng candidates
         | Some _ ->
             candidates.(decide t ~kind:"steal_victim" ~arity:(Array.length candidates))
       in
       Uksched.Sched.steal ~from_:victim.sched thief.sched
       && begin
            let vc = Uksim.Clock.cycles victim.clock
            and tc = Uksim.Clock.cycles thief.clock in
            if vc > tc then Uksim.Clock.advance thief.clock (vc - tc);
            Uksim.Clock.advance thief.clock Uksim.Cost.cache_migration;
            C.incr thief.c_steals;
            C.incr victim.c_stolen_from;
            t.trace <- mix (mix t.trace (0x57ea1 + thief.id)) victim.id;
            true
          end
     end

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
    (* Fully idle cores attempt one steal each, in id order. *)
    Array.iter
      (fun c -> if next_action c = None then ignore (try_steal t c))
      t.cores;
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
          t.trace <- mix (mix t.trace c.id) (Uksim.Clock.cycles c.clock);
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
