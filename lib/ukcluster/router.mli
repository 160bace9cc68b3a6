(** The cluster's serving policy: consistent-hash sharding across
    hosts, per-request deadlines, budgeted retries with backoff and
    seeded jitter, tail-latency hedging, and admission that degrades
    gracefully as the detector's view of capacity shrinks.

    The router shards over {e slots} (one per host initially) placed on
    the front door's consistent-hash ring; suspicion quarantines a
    host's slots (arcs preserved — a false positive costs nothing on
    recovery), death collects them (arcs remap), and migration
    reassigns a slot to another host.

    Every offered request resolves exactly once — [Completed], [Shed]
    (at admission or by every host within the retry budget), or
    [Expired] at its deadline. The deadline timer is the sole expirer,
    so a response can be late, lost to a partition, or from a crashed
    host's previous life without the caller ever losing the reply. *)

type params = private {
  deadline_ns : float;
  attempt_timeout_ns : float;
  hedge : bool;
  hedge_quantile : float;
  hedge_min_ns : float;
}

val params :
  ?deadline_ns:float ->
  ?attempt_timeout_ns:float ->
  ?hedge:bool ->
  ?hedge_quantile:float ->
  ?hedge_min_ns:float ->
  unit ->
  params
(** Defaults: 50 ms deadline, 10 ms attempt timeout, hedging off (p97
    trigger, 500 us floor when on). Fixed: 2 retries from a 1 ms base
    doubling with 0.5 seeded jitter; an admission window of 2x the
    believed capacity over one deadline; 512 B requests and 4 KiB
    replies on the wire; 64 ring points per slot. *)

type outcome = Completed | Shed | Expired

type t

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  seed:int ->
  net:Netmodel.t ->
  front:int ->
  n_hosts:int ->
  params:params ->
  submit:
    (host:int -> now_ns:float -> flow:int -> on_reply:(ok:bool -> unit) -> bool) ->
  capacity_rps:(host:int -> float) ->
  unit ->
  t
(** [submit] offers one attempt to a host (false = host refused, the
    attempt timeout recovers); [capacity_rps] feeds admission. *)

val offer :
  t -> now_ns:float -> flow:int -> on_done:(outcome -> latency_ns:float -> unit) -> unit
(** Offer one request. [on_done] fires exactly once, by
    [now_ns + deadline_ns] at the latest. *)

(** {2 Shard control (driven by the detector and migration)} *)

val suspect_host : t -> int -> unit
val recover_host : t -> int -> unit

val collect_host : t -> int -> unit
(** Dead-and-collected: the host's slots leave the ring until
    {!reassign} places them on a live host. *)

val readmit_host : t -> int -> unit
(** Undo {!collect_host} for a host the control plane brought back:
    clears suspicion and restores its remaining slots' original arcs. *)

val reassign : t -> slot:int -> host:int -> unit
val drain_slot : t -> slot:int -> bool -> unit
val host_of_slot : t -> int -> int
val slots_of_host : t -> int -> int list
val collected : t -> int -> bool

(** {2 Readout} *)

val outstanding : t -> int

val source : t -> Uktrace.Source.t
(** The router's ["ukcluster.router"] source, registered at {!create}:
    the counts [offered], [completed], [shed], [expired], [retries],
    [hedges], [hedge_wins], [cancelled] and [lost_replies] (responses
    eaten by partitions), then [outstanding] as a level.
    {!Uktrace.Registry.reset} never zeroes the counts. *)

val latency : t -> Uksim.Stats.t
val trace_hash : t -> int
