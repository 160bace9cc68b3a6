(** One host of the cluster: an {!Ukfleet.Fleet} with its own cost
    class, wrapped in a crash/freeze lifecycle.

    The host's fleet runs on the cluster's shared clock/engine
    ([`Engine] substrate, externally driven); its calibrated costs are
    stretched by the host-class multiplier (x86 reference vs. ARM-class
    edge silicon — the heterogeneity the edge-computing literature
    motivates). Failure semantics:

    - {e crash}: the host's life (epoch) ends. In-flight work freezes
      and any replies from the old life are dropped on delivery — a
      crashed host never answers. {!recover} starts the next life.
    - {e freeze}: the host stalls for a duration, then resumes. Held
      replies are released late, with the stall in their latency — the
      gray-failure case that makes routers hedge. *)

type cls = X86 | Arm
(** The class sets the fleet's [cost_factor]: 1.0 for [X86], 2.0 for
    [Arm]. *)

type state = Up | Frozen | Crashed

type t

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  seed:int ->
  id:int ->
  cls:cls ->
  image:Ukfleet.Image.t ->
  unit ->
  t
(** Builds and starts the host's fleet (2 fixed instance slots) on the
    shared timeline. *)

val id : t -> int
val state : t -> state
val up : t -> bool
val fleet : t -> Ukfleet.Fleet.t

val capacity_rps : t -> float
(** Aggregate steady-state service rate (0 when crashed). *)

val settle_ns : t -> float

val submit : t -> now_ns:float -> flow:int -> on_reply:(ok:bool -> unit) -> bool
(** Offer one request to the host's fleet. [false] if the host is not
    [Up] (the request vanishes — the caller's timeout recovers).
    [on_reply] fires when the reply leaves the host: never after a
    crash of the life that accepted it, late after a freeze. *)

val crash : t -> now_ns:float -> bool
val recover : t -> now_ns:float -> bool

val freeze : t -> now_ns:float -> dur_ns:float -> bool
(** Stall for [dur_ns], then auto-thaw (unless a crash superseded it). *)
