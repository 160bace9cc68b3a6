(** uksmp: multicore simulation substrate.

    The Unikraft paper evaluates single-core unikernels and leaves SMP as
    future work; this module models it. A {e core} is a (clock, engine,
    cooperative scheduler) triple — all cores' clocks count cycles since
    boot on one shared absolute axis, so cross-core timestamps compare
    directly. {!run} interleaves single-steps across cores in virtual-time
    order (the core whose next possible action is earliest runs next, ties
    to the lowest id): conservative parallel discrete-event simulation,
    fully deterministic for a given workload and core count at any host
    machine — verified by {!trace_hash} replay checks.

    A thread runs on the core it was spawned on until it exits, so its
    closure may charge that core's clock directly. The one cross-core
    interaction the coordinator prices is a wake: a wake made through
    core A's scheduler for a thread that lives on core B is routed to B
    and charges {!Uksim.Cost.ipi} to B's clock. *)

type t

val create : cores:int -> unit -> t
(** [cores] fresh cores, schedulers joined into one {!Uksched.Sched.group}. *)

val n_cores : t -> int
val sched_of : t -> core:int -> Uksched.Sched.t
(** A thread spawned on the core's scheduler runs on that core. *)

val clock_of : t -> core:int -> Uksim.Clock.t
val engine_of : t -> core:int -> Uksim.Engine.t

val run : t -> unit
(** Drive all cores until no thread is ready and no event is pending
    on any core. Raises {!Uksched.Sched.Deadlock} if blocked non-daemon
    threads remain anywhere. *)

val current_core : t -> int option
(** The core being stepped right now, if any. *)

val group : t -> Uksched.Sched.group
(** The scheduler group joining all cores — correctness tooling (ukcheck)
    attaches its {!Uksched.Sched.set_group_observer} here. *)

(** {1 Schedule decision points (consumed by [lib/ukcheck])}

    The coordinator's nondeterminism-as-configuration: the places where a
    run could legally go more than one way. With no decider installed the
    substrate behaves exactly as documented above (lowest-id tie-breaks)
    — installing one replaces that policy with external choices and logs
    every choice made, which is what lets ukcheck enumerate schedules and
    replay failing ones. *)

type decision = {
  kind : string;  (** "step_core", or an external kind *)
  arity : int;  (** number of alternatives (>= 2; forced choices are not logged) *)
  choice : int;  (** the branch taken, in [0, arity) — 0 is the default *)
}

val set_decider : t -> (kind:string -> arity:int -> int) option -> unit
(** Install (or remove) the choice-point callback and clear the decision
    log. Out-of-range answers fall back to 0. *)

val decide : t -> kind:string -> arity:int -> int
(** Route an {e external} choice point (e.g. a per-core dispatch choice
    from {!Uksched.Sched.set_dispatch_chooser}) through the installed
    decider so it lands in the same decision log. Returns 0 — the
    default — when no decider is installed or [arity < 2]. *)

val decisions : t -> decision list
(** Chronological log of all decisions since {!set_decider}. *)

val set_wake_observer : t -> (src:int -> dst:int -> unit) option -> unit
(** Fires on every cross-core wake/IPI with the core ids involved
    ([src = -1] if the waker is outside any core) — feeds ukcheck's
    happens-before edges. Observers must not perturb the run. *)

(** {1 Observation} *)

type cstats = {
  steps : int;  (** coordinator steps that made progress on this core *)
  ipis : int;  (** cross-core wakes/IPIs delivered to this core *)
}

val stats : t -> core:int -> cstats
(** Reads the per-core counter cells that {!create} registers as the
    ["uksmp.cores"] metric group. The group holds only those cells, so a
    registered source does not keep a dropped domain alive. *)

val set_step_observer : t -> (core:int -> cycles:int -> unit) option -> unit
(** [set_step_observer t (Some f)] calls [f ~core ~cycles] after every
    coordinator step that made progress, with the cycles the stepped
    core's clock advanced. Feeds the uktrace profiling sampler; observers
    must not touch clocks or engines (determinism). *)

val trace_hash : t -> int
(** Rolling hash over (core, clock) of every step that made progress —
    two runs of one workload on one core count produce equal hashes. *)

val elapsed_ns : t -> float
(** Max over all core clocks. *)
