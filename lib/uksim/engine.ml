type t = {
  clock : Clock.t;
  queue : (unit -> unit) Heapq.t;
  mutable observer : (int -> unit) option;
}

let create clock = { clock; queue = Heapq.create (); observer = None }
let clock t = t.clock
let set_observer t f = t.observer <- f

type timer = (unit -> unit) Heapq.entry

let at t cycle f =
  if cycle < Clock.cycles t.clock then invalid_arg "Engine.at: event in the past";
  ignore (Heapq.push t.queue cycle f)

let after t d f =
  if d < 0 then invalid_arg "Engine.after: negative delay";
  at t (Clock.cycles t.clock + d) f

let arm t d f =
  if d < 0 then invalid_arg "Engine.arm: negative delay";
  Heapq.push t.queue (Clock.cycles t.clock + d) f

let cancel t timer = Heapq.cancel t.queue timer

let after_ns t d = after t (Clock.cycles_of_ns d)
let pending t = Heapq.length t.queue
let next_at t = match Heapq.peek t.queue with Some (cycle, _) -> Some cycle | None -> None

let step t =
  match Heapq.pop t.queue with
  | None -> false
  | Some (cycle, f) ->
      if cycle > Clock.cycles t.clock then
        Clock.advance t.clock (cycle - Clock.cycles t.clock);
      (match t.observer with
      | None -> f ()
      | Some obs ->
          let c0 = Clock.cycles t.clock in
          f ();
          obs (Clock.cycles t.clock - c0));
      true

let rec run ?until t =
  match until with
  | None -> if step t then run t
  | Some limit -> (
      match Heapq.peek t.queue with
      | Some (cycle, _) when cycle <= limit ->
          ignore (step t);
          run ~until:limit t
      | Some _ | None ->
          if Clock.cycles t.clock < limit then
            Clock.advance t.clock (limit - Clock.cycles t.clock))

let run_for_ns t d = run ~until:(Clock.cycles t.clock + Clock.cycles_of_ns d) t
