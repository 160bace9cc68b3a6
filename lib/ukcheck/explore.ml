(* Controlled-scheduler driver: run a fixture repeatedly, steering every
   substrate choice point, to enumerate interleavings instead of sampling
   the default one. Stateless exploration — each schedule is a fresh
   substrate run identified purely by its forced decision prefix, so a
   failing run is trivially replayable. *)

module Smp = Uksmp.Smp

type fixture = Smp.t -> seed:int -> (unit -> (unit, string) result)

type config = {
  cores : int;
  budget : int;
  seeds : int list;
}

let walk_seed = 0xC0FFEE (* seeds the random-walk phase, with the explored seed *)

(* Per-run decision cap: deeper choice points take the default. *)
let max_decisions = 256

let config ?(cores = 2) ?(budget = 64) ?(seeds = [ 1 ]) () =
  if cores <= 0 then invalid_arg "Explore.config: cores must be positive";
  if budget <= 0 then invalid_arg "Explore.config: budget must be positive";
  { cores; budget; seeds = (if seeds = [] then [ 1 ] else seeds) }

type summary = { schedules : int; exhaustive : bool }

type failure = {
  cert : Schedule.cert;
  message : string;
  trace_hash : int;
  found_after : int;
  shrink_runs : int;
}

type replay_out = {
  outcome : (unit, string) result;
  hash : int;
  log : Schedule.decision list;
}

type result = Passed of summary | Failed of failure

(* Policy for decisions beyond the forced prefix: the default branch, or
   random choices down to a depth bound (iterative depth bounding). *)
type tail = Defaults | Walk of Uksim.Rng.t * int

(* Run one schedule: forced decisions by position, [tail] policy beyond.
   Deadlocks and exceptions from the workload or the invariant check are
   violations like any other — that is half the point of the tool. *)
let run_one ~cores ~seed ~forced ~tail ~max_decisions (fixture : fixture) : replay_out =
  let smp = Smp.create ~cores () in
  let forced = Array.of_list forced in
  let idx = ref 0 in
  Smp.set_decider smp
    (Some
       (fun ~kind ~arity ->
         let i = !idx in
         incr idx;
         if i < Array.length forced then begin
           let d = forced.(i) in
           (* A divergent replay (kind mismatch or stale arity) falls back
              to the default rather than crashing: the caller compares
              outcomes/hashes, so divergence is visible, not fatal. *)
           if d.Schedule.kind = kind && d.choice < arity then d.choice else 0
         end
         else if i >= max_decisions then 0
         else
           match tail with
           | Defaults -> 0
           | Walk (rng, depth) -> if i < depth then Uksim.Rng.int rng arity else 0));
  for core = 0 to cores - 1 do
    let sched = Smp.sched_of smp ~core in
    Uksched.Sched.set_dispatch_chooser sched
      (Some (fun n -> Smp.decide smp ~kind:(Printf.sprintf "dispatch@%d" core) ~arity:n))
  done;
  let check = fixture smp ~seed in
  let outcome =
    match Smp.run smp with
    | () -> (
        try check () with e -> Error ("exception: " ^ Printexc.to_string e))
    | exception Uksched.Sched.Deadlock names ->
        Error ("deadlock: " ^ String.concat ", " names)
    | exception e -> Error ("exception: " ^ Printexc.to_string e)
  in
  { outcome; hash = Smp.trace_hash smp; log = Smp.decisions smp }

let replay fixture (cert : Schedule.cert) =
  run_one ~cores:cert.cores ~seed:cert.seed ~forced:cert.decisions ~tail:Defaults
    ~max_decisions:(max max_decisions (List.length cert.decisions)) fixture

(* Shrink a failing decision list: (1) revert each non-default decision to
   the default, last to first, keeping reversions that still fail; (2)
   strip the trailing defaults (implied). Repeat to a fixpoint. Returns
   the minimal list plus the number of extra runs spent. *)
let shrink ~cores ~seed ~max_decisions fixture decisions =
  let runs = ref 0 in
  let fails ds =
    incr runs;
    match (run_one ~cores ~seed ~forced:ds ~tail:Defaults ~max_decisions fixture).outcome with
    | Error _ -> true
    | Ok () -> false
  in
  let cur = ref (Schedule.strip_defaults decisions) in
  let made_progress = ref true in
  while !made_progress && !runs < 200 do
    made_progress := false;
    let arr = Array.of_list !cur in
    for i = Array.length arr - 1 downto 0 do
      if arr.(i).Schedule.choice > 0 && !runs < 200 then begin
        let saved = arr.(i) in
        arr.(i) <- { saved with Schedule.choice = 0 };
        if fails (Schedule.strip_defaults (Array.to_list arr)) then made_progress := true
        else arr.(i) <- saved
      end
    done;
    cur := Schedule.strip_defaults (Array.to_list arr)
  done;
  (!cur, !runs)

let run cfg fixture =
  let total_runs = ref 0 in
  let failed = ref None in
  let exhaustive = ref true in
  let n_seeds = List.length cfg.seeds in
  let per_seed = max 1 (cfg.budget / n_seeds) in
  let explore_seed seed =
    let seed_runs = ref 0 in
    let budget_left () = !seed_runs < per_seed && !total_runs < cfg.budget in
    let record out =
      incr seed_runs;
      incr total_runs;
      match out.outcome with
      | Error msg -> failed := Some (seed, out.log, msg, !total_runs)
      | Ok () -> ()
    in
    (* Phase 1: depth-first enumeration of the decision tree. Every pushed
       prefix ends in a non-default choice, so no prefix is visited twice. *)
    let stack = Stack.create () in
    Stack.push [] stack;
    while (not (Stack.is_empty stack)) && !failed = None && budget_left () do
      let prefix = Stack.pop stack in
      let out =
        run_one ~cores:cfg.cores ~seed ~forced:prefix ~tail:Defaults
          ~max_decisions fixture
      in
      record out;
      if out.outcome = Ok () then begin
        let log = Array.of_list out.log in
        let plen = List.length prefix in
        for i = Array.length log - 1 downto plen do
          let d = log.(i) in
          for alt = d.Schedule.arity - 1 downto 1 do
            Stack.push (Array.to_list (Array.sub log 0 i) @ [ { d with Schedule.choice = alt } ])
              stack
          done
        done
      end
    done;
    (* Phase 2: the tree outgrew the budget — spend what is left on seeded
       random walks, cycling the randomization depth bound. *)
    if (not (Stack.is_empty stack)) && !failed = None then begin
      exhaustive := false;
      let rng = Uksim.Rng.create (walk_seed lxor (seed * 0x9e3779b9)) in
      let depths = [| 4; 8; 16; 32; max_int |] in
      let walk = ref 0 in
      while !failed = None && budget_left () do
        let depth = depths.(!walk mod Array.length depths) in
        incr walk;
        record
          (run_one ~cores:cfg.cores ~seed ~forced:[] ~tail:(Walk (rng, depth))
             ~max_decisions fixture)
      done
    end
  in
  let rec loop = function
    | [] -> ()
    | seed :: rest ->
        if !failed = None && !total_runs < cfg.budget then begin
          explore_seed seed;
          loop rest
        end
  in
  loop cfg.seeds;
  match !failed with
  | None -> Passed { schedules = !total_runs; exhaustive = !exhaustive }
  | Some (seed, log, _msg, found_after) ->
      let minimal, shrink_runs =
        shrink ~cores:cfg.cores ~seed ~max_decisions fixture log
      in
      let cert = { Schedule.seed; cores = cfg.cores; decisions = minimal } in
      (* The authoritative message and hash come from replaying the
         minimal certificate itself. *)
      let final = replay fixture cert in
      let message = match final.outcome with Error m -> m | Ok () -> "unreproducible" in
      Failed { cert; message; trace_hash = final.hash; found_after; shrink_runs }
