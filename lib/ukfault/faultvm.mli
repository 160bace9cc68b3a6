(** Deterministic instance-level fault injection: the VM killer.

    Where {!Faultnet} damages packets and {!Faultalloc} fails
    allocations, this layer kills whole instances — the chaos drill for
    fleet supervision. It is deliberately ignorant of what an "instance"
    is: the owner hands over a way to enumerate live target ids and a way
    to kill one, so the same injector drives a {e ukfleet} fleet, a
    scheduler's thread set, or anything else with integer-named members.

    All randomness flows through the supplied {!Uksim.Rng.t}: equal
    seeds pick the same victims at the same instants, so a chaos run
    replays byte-identically. *)

type plan = {
  at_ns : float;  (** when the drill starts (absolute engine time) *)
  kill_fraction : float;  (** fraction of live targets to kill, in [0,1] *)
  min_kills : int;  (** kill at least this many (if enough targets) *)
  repeat_ns : float;  (** re-run the drill every period (0 = one-shot) *)
  rounds : int;  (** number of drill rounds when repeating *)
}

val plan :
  at_ns:float ->
  ?kill_fraction:float ->
  ?min_kills:int ->
  ?repeat_ns:float ->
  ?rounds:int ->
  unit ->
  plan
(** Kills within a round are 10 µs apart. Defaults: kill 20% of live
    targets, at least 1, one-shot. *)

type t

val victims : rng:Uksim.Rng.t -> fraction:float -> min_kills:int -> int list -> int list
(** The seeded victim draw on its own: a uniform sample without
    replacement of [max min_kills (round (fraction * n))] ids, in kill
    order. Exposed for tests and for owners that want to schedule kills
    themselves. *)

val arm :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  rng:Uksim.Rng.t ->
  plan:plan ->
  targets:(unit -> int list) ->
  kill:(now_ns:float -> int -> bool) ->
  t
(** Schedule the drill on [engine]. At each round's start the injector
    snapshots [targets ()], draws victims, and fires [kill] for each at
    its staggered instant; [kill] returning [false] counts as missed. *)

val source : t -> Uktrace.Source.t
(** The drill's ["ukfault.vm"] source: [rounds] run, [killed] (kills the
    owner confirmed) and [missed] (victims already gone when the shot
    landed). *)
