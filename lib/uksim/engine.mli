(** Discrete-event execution engine.

    Events are closures scheduled at absolute or relative cycle timestamps on
    a shared {!Clock.t}. Running the engine pops events in time order,
    advancing the clock to each event's timestamp before executing it. *)

type t

val create : Clock.t -> t
val clock : t -> Clock.t

val at : t -> int -> (unit -> unit) -> unit
(** [at t cycle f] schedules [f] at absolute cycle [cycle]. Scheduling in the
    past raises [Invalid_argument]. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t d f] schedules [f] [d] cycles from now. Negative [d] raises
    [Invalid_argument] (like {!at} with a timestamp in the past); [d = 0]
    is valid and fires at the current cycle. *)

val after_ns : t -> float -> (unit -> unit) -> unit

type timer
(** An event scheduled with {!arm}, which {!cancel} can take back. *)

val arm : t -> int -> (unit -> unit) -> timer
(** [arm t d f] schedules [f] [d] cycles from now, like {!after}, and
    returns a handle that cancels it. Negative [d] raises
    [Invalid_argument]. *)

val cancel : t -> timer -> unit
(** [cancel t timer] unschedules the event: it never runs and never
    advances the clock. Cancelling an event that already ran, or was
    already cancelled, does nothing. Amortized O(1). *)

val pending : t -> int
(** Number of scheduled events that have neither run nor been
    cancelled. *)

val next_at : t -> int option
(** Absolute cycle of the earliest queued event, if any. Lets a
    coordinator (e.g. the uksmp multicore loop) order several engines on
    one time axis without popping. *)

val step : t -> bool
(** Run the next event, if any; [true] if one ran. *)

val set_observer : t -> (int -> unit) option -> unit
(** [set_observer t (Some f)] calls [f cycles] after each event runs,
    with the cycles the event's closure consumed (the idle advance to
    the event's timestamp is excluded). Used by the uktrace profiling
    sampler to attribute cycles; observers must not schedule events or
    advance the clock. *)

val run : ?until:int -> t -> unit
(** Drain the queue, or stop once the next event would be past cycle
    [until] (that event stays queued and the clock advances to [until]). *)

val run_for_ns : t -> float -> unit
(** [run_for_ns t d] runs events for the next [d] nanoseconds of virtual
    time. *)
