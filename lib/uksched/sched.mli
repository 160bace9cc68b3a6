(** The uksched API (paper §3.3).

    Scheduling in Unikraft is available but optional. This module is the
    one scheduler an image can configure: run-to-yield cooperative
    threads (the paper's default for Redis-style single-threaded
    servers). An image with no scheduler runs its entry point to
    completion without one ([Vm.run_main]).

    Threads are OCaml effect-based fibers; the scheduler trampolines them so
    arbitrarily many context switches use constant stack. All switches
    charge {!Uksim.Cost.context_switch} to the scheduler's clock. *)

type t
type tid = int

val create_cooperative : clock:Uksim.Clock.t -> engine:Uksim.Engine.t -> t

val clock : t -> Uksim.Clock.t

val spawn : t -> ?name:string -> ?daemon:bool -> ?pinned:bool -> (unit -> unit) -> tid
(** Create a thread. It becomes runnable and will run on {!run}. May
    also be called from inside a running thread. [daemon] threads
    (default false) do not keep {!run} alive: when only daemons remain
    blocked, [run] returns instead of raising [Deadlock]. [pinned]
    threads (default false) are never migrated by {!steal} — pin anything
    whose costs are charged to a specific core's clock (per-core service
    loops, accept loops, load generators). *)

val run : t -> unit
(** Trampoline until no thread is runnable and no engine event can make one
    runnable. Raises [Deadlock] if blocked non-daemon threads remain but no
    event can wake them. *)

exception Deadlock of string list
(** Names of the stuck threads. *)

exception Thread_exit
(** Raised by {!exit_thread}; the scheduler treats it as a normal thread
    termination (exported so crash barriers like {!Supervisor} can tell a
    voluntary exit from a crash). *)

(** {1 Callable from inside a thread} *)

val yield : unit -> unit
(** Give up the CPU; the thread stays runnable. Performs an effect — only
    valid inside a thread of a running scheduler. *)

val self : unit -> tid

val block : unit -> unit
(** Block until {!wake}. *)

val sleep_ns : float -> unit
(** Block for a span of virtual time. *)

val exit_thread : unit -> 'a
(** Terminate the current thread. *)

(** {1 Callable from anywhere} *)

val wake : t -> tid -> unit
(** Make a blocked thread runnable; no-op if it is not blocked. *)

val alive : t -> int
(** Threads not yet exited. *)

val thread_name : t -> tid -> string option

(** {1 SMP coordination (consumed by [lib/uksmp])}

    A single scheduler instance stays single-core; multicore runs are
    built from one cooperative scheduler per core, joined into a group
    and driven by an external coordinator that interleaves {!step} calls
    in virtual-time order. *)

type group
(** A set of schedulers sharing one tid namespace and wake routing. *)

val create_group : unit -> group

val join_group : group -> t -> unit
(** Joining makes tids unique across members and reroutes {!wake} calls
    that name a thread which migrated (or was addressed via a stale
    scheduler reference) to its current owner. Raises [Invalid_argument]
    if the scheduler is already in a group. *)

val set_remote_wake : group -> (src:t -> dst:t -> unit) option -> unit
(** Hook invoked when a wake is routed from one member to another and
    actually unblocks a thread — uksmp charges the IPI cost here. *)

type group_event =
  | Spawned of tid  (** a thread was created on some member *)
  | Woken of tid  (** a blocked thread became ready *)
  | Exited of tid  (** a thread ran to completion *)

val set_group_observer : group -> (group_event -> unit) option -> unit
(** Lifecycle hook for correctness tooling (ukcheck's happens-before
    tracker): fires on every member's spawn/wake/exit. Observers must not
    touch clocks, engines, queues or randomness — determinism requires
    that installing one cannot change a run. *)

val current_tid : t -> tid option
(** The thread this scheduler is executing right now, if any — usable from
    outside thread context (unlike {!self}, which performs an effect). *)

val set_dispatch_chooser : t -> (int -> int) option -> unit
(** [set_dispatch_chooser t (Some f)] turns ready-thread dispatch in
    {!step} into an explicit decision point: with [n >= 2] genuinely
    ready threads, [f n] picks which one runs (0 = FIFO head, i.e. the
    default; out-of-range choices fall back to 0). ukcheck's schedule
    explorer drives this; without a chooser, dispatch is FIFO exactly as
    before. Only affects {!step} (the SMP coordinator path), not
    {!run}. *)

val step : t -> bool
(** Make one unit of progress: dispatch one ready thread, else run one
    engine event. [false] when neither is possible. *)

val runnable : t -> int
(** Number of genuinely ready threads in the run queue. *)

val steal : from_:t -> t -> bool
(** [steal ~from_ t] migrates the oldest ready, unpinned thread of
    [from_] into [t]'s run queue (with its identity and continuation).
    Requires both schedulers to be in the same group so later wakes find
    the thread. [false] if nothing was stealable. *)

val stuck : t -> string list
(** Names of blocked non-daemon threads (the {!Deadlock} payload). *)
