(** Systematic schedule exploration over the {!Uksmp.Smp} substrate.

    A {e fixture} builds a closed SMP workload on a fresh substrate and
    returns the invariant to check after the run. The explorer runs the
    fixture under a controlled scheduler many times, varying the choice
    points the substrate exposes (steal-victim selection, step-order
    tie-breaks, per-core dispatch order — see {!Uksmp.Smp.set_decider})
    and, via the [seeds] list, the substrate/fault-injection seeds:

    - {b bounded exhaustive enumeration} walks the decision tree
      depth-first while it fits in the schedule budget — small state
      spaces are checked completely;
    - {b seeded random walk with iterative depth bounding} takes over
      when the tree outgrows the budget: walks draw random choices down
      to a depth bound that cycles through 4, 8, 16, 32, ∞, probing both
      shallow and deep interleavings.

    A violation (invariant [Error], deadlock, or any exception) triggers
    a {e shrinking loop} that re-runs the schedule with individual
    decisions reverted to the default and the tail truncated, emitting
    the minimal failing schedule as a {!Schedule.cert} the substrate
    replays byte-identically (same [trace_hash]). *)

type fixture = Uksmp.Smp.t -> seed:int -> (unit -> (unit, string) result)
(** [fixture smp ~seed] spawns the workload on [smp] (already created
    with [~seed]) and returns the post-run invariant check. The check
    runs after {!Uksmp.Smp.run} completes; raising is treated like
    returning [Error]. *)

type config = {
  cores : int;  (** cores per substrate (default 2) *)
  budget : int;  (** max schedules explored across all seeds (default 64) *)
  seeds : int list;  (** substrate seeds to cross with schedules (default [[1]]) *)
}

val config : ?cores:int -> ?budget:int -> ?seeds:int list -> unit -> config
(** Once the schedule tree outgrows [budget], the random walks that
    spend the rest are seeded from 0xC0FFEE and the substrate seed. A
    run forces at most 256 decisions; deeper choice points take the
    default. *)

type summary = {
  schedules : int;  (** schedules actually run *)
  exhaustive : bool;  (** the whole decision tree was enumerated *)
}

type failure = {
  cert : Schedule.cert;  (** minimal failing schedule, replayable *)
  message : string;  (** the violation, from the shrunk schedule's replay *)
  trace_hash : int;  (** substrate trace hash of the shrunk schedule *)
  found_after : int;  (** schedules run when the first violation appeared *)
  shrink_runs : int;  (** extra runs spent shrinking *)
}

type replay_out = {
  outcome : (unit, string) result;
  hash : int;  (** {!Uksmp.Smp.trace_hash} of the replayed run *)
  log : Schedule.decision list;  (** decisions actually taken *)
}

type result = Passed of summary | Failed of failure

val run : config -> fixture -> result

val replay : fixture -> Schedule.cert -> replay_out
(** Re-run one certified schedule (cores and seed come from the
    certificate). Two replays of the same certificate are
    byte-identical: same outcome, same decision log, same hash. *)
