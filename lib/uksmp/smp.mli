(** uksmp: multicore simulation substrate.

    The Unikraft paper evaluates single-core unikernels and leaves SMP as
    future work; this module models it. A {e core} is a (clock, engine,
    cooperative scheduler) triple — all cores' clocks count cycles since
    boot on one shared absolute axis, so cross-core timestamps compare
    directly. {!run} interleaves single-steps across cores in virtual-time
    order (the core whose next possible action is earliest runs next, ties
    to the lowest id): conservative parallel discrete-event simulation,
    fully deterministic for a given seed and core count at any host
    machine — verified by {!trace_hash} replay checks.

    Cross-core interactions and their calibrated costs:
    - a wake that crosses cores (a thread migrated, or a stack on core A
      wakes a thread on core B) charges {!Uksim.Cost.ipi} to the
      destination core;
    - a fully idle core steals the oldest ready {e unpinned} thread from a
      random victim with work to spare; the thief's clock jumps to the
      victim's present plus {!Uksim.Cost.cache_migration}. Threads whose
      closures charge a specific core's clock must be spawned
      [~pinned:true]; work-stealing is for core-agnostic tasks that charge
      through {!charge}. *)

type t

val create : ?seed:int -> cores:int -> unit -> t
(** [cores] fresh cores, schedulers joined into one {!Uksched.Sched.group}.
    [seed] (default 1) drives steal-victim selection only. *)

val n_cores : t -> int
val sched_of : t -> core:int -> Uksched.Sched.t
val clock_of : t -> core:int -> Uksim.Clock.t
val engine_of : t -> core:int -> Uksim.Engine.t

val spawn_on : t -> core:int -> ?name:string -> ?pinned:bool -> (unit -> unit) -> Uksched.Sched.tid
(** Spawn a thread on a core's scheduler. [pinned] (default false) excludes
    it from work stealing. *)

val run : t -> unit
(** Drive all cores until no thread is runnable, no event is pending, and
    no steal can help. Raises {!Uksched.Sched.Deadlock} if blocked
    non-daemon threads remain anywhere. *)

val charge : t -> int -> unit
(** Charge cycles to the clock of the core currently being stepped — how
    migratable (unpinned) tasks account their work wherever they run.
    Raises [Invalid_argument] outside {!run}. *)

val current_core : t -> int option
(** The core being stepped right now, if any. *)

val group : t -> Uksched.Sched.group
(** The scheduler group joining all cores — correctness tooling (ukcheck)
    attaches its {!Uksched.Sched.set_group_observer} here. *)

(** {1 Schedule decision points (consumed by [lib/ukcheck])}

    The coordinator's nondeterminism-as-configuration: the places where a
    run could legally go more than one way. With no decider installed the
    substrate behaves exactly as documented above (seeded RNG steal
    victims, lowest-id tie-breaks) — installing one replaces those
    policies with external choices and logs every choice made, which is
    what lets ukcheck enumerate schedules and replay failing ones. *)

type decision = {
  kind : string;  (** "steal_victim", "step_core", or an external kind *)
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
  steals : int;  (** threads this core stole *)
  stolen_from : int;  (** threads stolen from this core *)
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
    must not touch clocks, engines or the RNG (determinism). *)

val trace_hash : t -> int
(** Rolling hash over (core, clock) of every step and every migration —
    two runs with equal seeds and workloads must produce equal hashes. *)

val elapsed_ns : t -> float
(** Max over all core clocks. *)
