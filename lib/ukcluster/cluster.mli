(** The assembled fault-tolerant serving tier: hosts ({!Host}) joined
    by a network ({!Netmodel}), watched by a failure detector
    ({!Detector}), fronted by a sharding router ({!Router}), with live
    migration ({!Migrate}) as the shard-mobility primitive — all on one
    seeded virtual timeline, so any drill replays byte-identically.

    The invariant the whole tier exists to uphold: {e every offered
    request resolves exactly once} — completed, shed, or expired —
    whatever combination of crashes, freezes, asymmetric partitions and
    mid-migration failures the fault plane throws at it. [report.lost]
    is that invariant as a number; it must be 0. *)

type t

val create :
  ?seed:int ->
  ?n_hosts:int ->
  ?classes:Host.cls array ->
  ?image:Ukfleet.Image.t ->
  ?detector_params:Detector.params ->
  ?router_params:Router.params ->
  unit ->
  t
(** Defaults: seed 42, 4 hosts (every third ARM-class), httpd image,
    default {!Detector.params} and {!Router.params}. Fixed: 2 instances
    per host ({!Host.create}) and {!Netmodel.create}'s 50 us / 10 Gbps
    fabric. *)

val clock : t -> Uksim.Clock.t
val engine : t -> Uksim.Engine.t
val net : t -> Netmodel.t
val router : t -> Router.t
val detector : t -> Detector.t
val host : t -> int -> Host.t

val front : t -> int
(** The front tier's node id on the network ([n_hosts]). *)

val ops : t -> Ukfault.Faulthost.ops
(** The cluster's fault primitives, for arming an
    {!Ukfault.Faulthost} timeline. Recovering a crashed host also
    re-admits its shards at the router (the control-plane half the
    sticky-dead detector leaves to the owner). *)

val migrate : t -> at_ns:float -> src:int -> dst:int -> unit
(** Schedule a live migration of [src]'s first shard to [dst]. On
    abort (destination died, link partitioned) it restarts toward the
    lowest-id live host after a 2 ms backoff, up to 4 attempts. *)

val kill_clone : t -> at_ns:float -> src:int -> dst:int -> unit
(** The naive baseline: crash [src] and recover {e reactively} — the
    cold clone toward [dst] starts only once the detector declares the
    source dead, so the shard eats timeouts for the whole detection
    window. The contrast class for {!migrate}. *)

val last_pause_ns : t -> float

val settle_ns : t -> float
(** When the measured window opens (all hosts booted, plus margin). *)

(** A run's outcome. [offered] through [lost_replies] are the
    {!Router.source} counts, [suspects], [recovers] and [deads] the
    {!Detector.source} counts, at the end of the run. *)
type report = {
  offered : int;
  completed : int;
  shed : int;
  expired : int;
  lost : int;  (** offered - completed - shed - expired: must be 0 *)
  retries : int;
  hedges : int;
  hedge_wins : int;
  cancelled : int;
  lost_replies : int;  (** responses eaten by partitions (recovered by retry/deadline) *)
  suspects : int;
  recovers : int;
  deads : int;
  migrations : int;
  migration_aborts : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
  trace_hash : int;
}

val run : t -> Ukfleet.Workload.t -> report
(** Replay [wl] as an open Poisson arrival stream through the router
    (starting after {!settle_ns}), drive the engine dry, and report.
    Single-shot: a cluster runs one workload. *)
