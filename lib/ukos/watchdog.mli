(** A guest-side watchdog timer.

    The supervised component must call {!pet} at least once per
    [timeout_ns] of virtual time; if a full timeout elapses without a
    pet, the watchdog {e bites}: the bite counter increments and the
    configured action runs. Expiry checks ride the event engine, so the
    watchdog behaves deterministically under simulated load.

    After a bite the watchdog re-arms (a wedged component keeps getting
    bitten every timeout until {!stop} or a pet) — bite actions that
    restart the component (e.g. via {!Uksched.Supervisor}) therefore get
    a fresh grace period. *)

type t

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  timeout_ns:float ->
  ?on_bite:(t -> unit) ->
  unit ->
  t
(** Armed immediately; the first deadline is one timeout from now. *)

val pet : t -> unit
(** Reset the deadline to one timeout from now. *)

val stop : t -> unit
(** Disarm; pending expiry events become no-ops. *)

val bites : t -> int
