type cls = X86 | Arm

(* ARM-class edge silicon: same image, roughly double the per-request
   and boot cost of the x86 reference the paper calibrates against. *)
let cls_factor = function X86 -> 1.0 | Arm -> 2.0

type state = Up | Frozen | Crashed

type t = {
  id : int;
  fleet : Ukfleet.Fleet.t;
  engine : Uksim.Engine.t;
  mutable state : state;
  mutable epoch : int; (* bumped on crash: replies from a dead life are dropped *)
}

(* Fixed instance slots per host. *)
let instances = 2

let create ~clock ~engine ~seed ~id ~cls ~image () =
  let fleet =
    Ukfleet.Fleet.create
      ~seed:(seed lxor ((id + 1) * 0x9E3779B9))
      ~substrate:(`Engine (clock, engine))
      ~boot_mode:Ukfleet.Fleet.Cold ~initial:instances
      ~cost_factor:(cls_factor cls)
      ~shed_after_ns:(Uksim.Units.msec 20.0)
      ~image ()
  in
  Ukfleet.Fleet.start fleet;
  { id; fleet; engine; state = Up; epoch = 0 }

let id t = t.id
let state t = t.state
let fleet t = t.fleet
let up t = t.state = Up

let capacity_rps t =
  if t.state = Crashed then 0.0
  else
    float_of_int instances *. 1e9
    /. (Ukfleet.Fleet.costs t.fleet).Ukfleet.Fleet.service_ns

let settle_ns t = Ukfleet.Fleet.settle_ns t.fleet

(* A reply races the host's lifecycle: it only leaves the host if the
   host is still in the same life (epoch) and not crashed. Frozen-then-
   thawed replies are released by the fleet at the thaw instant. *)
let submit t ~now_ns ~flow ~on_reply =
  if t.state <> Up then false
  else begin
    let ep = t.epoch in
    Ukfleet.Fleet.submit ~flow
      ~on_reply:(fun ~ok ~latency_ns:_ ->
        if t.epoch = ep && t.state <> Crashed then on_reply ~ok)
      t.fleet ~now_ns;
    true
  end

let crash t ~now_ns =
  if t.state = Crashed then false
  else begin
    t.state <- Crashed;
    t.epoch <- t.epoch + 1;
    (* The fleet stalls: its pending completion events are held, and
       dropped by the epoch check when a later thaw releases them. *)
    Ukfleet.Fleet.freeze t.fleet ~now_ns;
    true
  end

let recover t ~now_ns =
  if t.state <> Crashed then false
  else begin
    t.state <- Up;
    Ukfleet.Fleet.thaw t.fleet ~now_ns;
    true
  end

let freeze t ~now_ns ~dur_ns =
  if t.state <> Up || dur_ns <= 0.0 then false
  else begin
    t.state <- Frozen;
    Ukfleet.Fleet.freeze t.fleet ~now_ns;
    Uksim.Engine.at t.engine
      (max (Uksim.Clock.cycles_of_ns (now_ns +. dur_ns)) 0)
      (fun () ->
        (* A crash during the stall wins; only a still-frozen host thaws. *)
        if t.state = Frozen then begin
          t.state <- Up;
          Ukfleet.Fleet.thaw t.fleet ~now_ns:(now_ns +. dur_ns)
        end);
    true
  end
