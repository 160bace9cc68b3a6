(** Deterministic host- and link-level fault injection: the cluster
    fault plane.

    Where {!Faultvm} kills single instances inside one host, this layer
    breaks whole hosts and the network between them — the chaos drill
    for a multi-host serving tier. Like {!Faultvm} it is deliberately
    ignorant of what a "host" is: the owner provides the five fault
    primitives over integer host ids, and the plane schedules a typed
    timeline of events over them. Partitions (symmetric or asymmetric)
    expand into directed [block src -> dst] link cuts, which is what
    makes {e asymmetric} partitions — requests arrive, responses vanish
    — expressible at all.

    Everything runs on the owner's virtual clock from an explicit
    timeline, so a drill replays byte-identically; randomness (victim
    choice) stays with the caller, e.g. via {!Faultvm.victims}. *)

type event =
  | Crash of int  (** host dies: loses in-flight work, stops responding *)
  | Recover of int  (** crashed host reboots *)
  | Freeze of int * float  (** [(host, dur_ns)]: stalls, then resumes — no state lost *)
  | Block of int * int  (** cut the directed link [src -> dst] *)
  | Partition of int list * int list  (** cut all links between the groups, both ways *)
  | Partition_asym of int list * int list
      (** cut [a -> b] only: b still reaches a — the asymmetric case *)
  | Heal of int list * int list  (** undo a partition (both directions) *)

type ops = {
  crash : now_ns:float -> int -> bool;
  recover : now_ns:float -> int -> bool;
  freeze : now_ns:float -> int -> dur_ns:float -> bool;
  block : now_ns:float -> src:int -> dst:int -> bool;
  unblock : now_ns:float -> src:int -> dst:int -> bool;
}
(** The owner's fault primitives; returning [false] counts as missed
    (target already gone, link already cut). *)

type t

val arm :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  ops:ops ->
  (float * event) list ->
  t
(** Schedule the timeline (absolute engine nanoseconds). *)

val source : t -> Uktrace.Source.t
(** The timeline's ["ukfault.host"] source: [applied] and [missed]
    events. *)
