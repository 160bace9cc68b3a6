(** Thread supervision: restart-on-crash with exponential backoff and a
    restart-budget circuit breaker.

    [supervise] spawns the body on the scheduler with a crash barrier: an
    escaping exception is caught (instead of tearing down the whole
    scheduler run), counted, and — budget permitting — the body is
    respawned after a backoff delay that doubles per consecutive crash.
    A body that runs to completion normally closes the supervisor.

    Once [max_restarts] restarts have been consumed the circuit breaker
    opens ({!state} = [Gave_up]) and the component stays down — the
    erlang-style "let it crash, but not forever" policy.

    Restart delays ride the event engine: they fire while the scheduler
    keeps running (other threads blocked on I/O keep the engine
    stepping). *)

type policy = {
  max_restarts : int;  (** total restart budget before giving up *)
  backoff_ns : float;  (** delay before the first restart *)
  backoff_factor : float;  (** multiplier per consecutive crash *)
  max_backoff_ns : float;  (** backoff ceiling *)
  jitter : float;
      (** each restart delay is stretched by a uniform draw in
          [\[0, jitter\]] of itself (0 = pure exponential backoff, the
          default). Seeded from a hash of the supervisor's name, so
          equal configurations replay identically. Jitter decorrelates supervisors that crashed
          together so they do not restart in lockstep. *)
}

val default_policy : policy
(** 5 restarts, 1 ms initial backoff, doubling, capped at 100 ms, no
    jitter. *)

type state = Running | Restarting | Completed | Gave_up

type t

val supervise :
  Sched.t ->
  engine:Uksim.Engine.t ->
  ?policy:policy ->
  ?name:string ->
  ?on_crash:(exn -> unit) ->
  (unit -> unit) ->
  t
(** Spawns immediately. Each (re)spawn is a daemon thread, so a
    crashed-and-waiting component does not deadlock the scheduler. *)

val state : t -> state
val crashes : t -> int
val restarts : t -> int
val last_error : t -> exn option

val restarts_remaining : t -> int
(** Budget left before the circuit breaker opens. *)
