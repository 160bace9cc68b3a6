(** Deterministic block-device fault injection over the ukblock API.

    Wraps a {!Ukblock.Blockdev.t} with seeded injection of I/O errors,
    torn writes (a prefix of the sectors reaches the medium, then the
    request fails — the classic power-cut artifact), and latency spikes.
    The wrapped record is a drop-in replacement; both the synchronous
    convenience calls and the submit/poll queue path are intercepted. *)

type plan = {
  io_error : float;  (** per-request probability of [Eio] *)
  torn_write : float;  (** per-write probability the first half of the
                           sectors is persisted and the request then
                           fails with [Eio] *)
  latency_spike : float;  (** per-request probability of stalling the
                              caller for [spike_ns] before the request
                              proceeds *)
  spike_ns : float;
}

val plan :
  ?io_error:float -> ?torn_write:float -> ?latency_spike:float -> ?spike_ns:float -> unit -> plan
(** All rates default to 0.0; [spike_ns] defaults to 2 ms. *)

type t

val wrap : clock:Uksim.Clock.t -> rng:Uksim.Rng.t -> plan:plan -> Ukblock.Blockdev.t -> t
val dev : t -> Ukblock.Blockdev.t

val source : t -> Uktrace.Source.t
(** The injector's ["ukfault.blk"] source: [forwarded], [io_errors]
    (injected [Eio] failures, torn writes included), [torn_writes],
    [latency_spikes] and [crash_stops] (deterministic stop-the-device
    crashes fired). *)

val crash_after_writes : t -> int -> unit
(** [crash_after_writes t n] arms the deterministic crash mode: the
    device accepts [n] more *sectors* of writes, then dies. A write that
    straddles the budget persists exactly the in-budget sector prefix (a
    torn write at that sector boundary) and fails; after that every
    request — read or write, sync or queued — fails with [Eio], like a
    machine that lost power. Counting sectors lets a crash matrix
    enumerate every sector boundary of a multi-sector journal record
    under one seed, independent of the probabilistic plan. *)

val crashed : t -> bool
(** The armed budget has been exhausted and the device is dead. *)

val revive : t -> unit
(** Disarm crash mode and bring the device back (the medium keeps
    whatever was persisted — remount recovery's entry point). *)
