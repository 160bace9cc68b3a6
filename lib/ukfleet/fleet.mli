(** Elastic unikernel fleet orchestration: boot-for-scale as a control
    plane.

    The paper's headline property — millisecond guest boots at megabyte
    footprints — matters because it makes {e reactive} scaling viable:
    spin instances up when traffic arrives instead of over-provisioning.
    This module turns that property into an end-to-end serving model. A
    fleet is a set of instance slots behind an L4 {!Frontdoor}; every
    instance's boot and per-request costs are calibrated from the real
    substrate ({!Image.calibrate} boots the image's constructor table
    through {!Ukplat.Vmm.boot} and measures service time over a real
    {!Uknetstack} loopback), and the fleet replays open-arrival
    {!Workload}s against those costs as a discrete-event simulation:
    instance capacity is modeled per instance, so a fleet of [n] serves
    [n] instances' worth of traffic in parallel virtual time.

    Three scale-out paths compete:
    - {e cold boot}: VMM create + full guest boot, per instance;
    - {e warm pool}: spares boot cold ahead of demand; activation is a
      config push. Taking a spare triggers a background refill;
    - {e snapshot clone}: the first instance pays full boot once, then a
      snapshot restore plus a memory copy of the footprint clones it —
      the fast path the paper's tiny images enable.

    Crashed instances are respawned {!Uksched.Supervisor}-style
    ({!Uksched.Supervisor.default_policy}: exponential backoff, restart
    budget), with their queued requests re-dispatched through the front
    door so no response is lost. An {!Autoscaler} drives scale-out/in
    every control tick from the fleet's own readings, the ones its
    {!source} publishes. Admission control sheds requests when the
    best-case queueing delay exceeds the configured bound.

    Everything is deterministic: a fixed seed produces a byte-identical
    {!trace_hash}, with or without observers attached. *)

type boot_mode =
  | Cold
  | Warm_pool of int  (** target number of pre-booted spares *)
  | Snapshot  (** first boot is cold and becomes the clone template *)

type backend =
  | Unikraft of Ukplat.Vmm.t
  | Baseline of Ukos.Profiles.t
      (** a baseline OS fleet: boot time from the profile, per-request
          cost scaled by its §5.3 request-cost factor *)

type substrate =
  [ `Own  (** a private clock + engine (the default) *)
  | `Engine of Uksim.Clock.t * Uksim.Engine.t
    (** share a caller's timeline — e.g. a cluster host's, which
        submits the requests its links deliver *) ]

type costs = {
  cold_boot_ns : float;
  clone_ns : float;  (** snapshot restore + footprint memory copy *)
  warm_activation_ns : float;
  service_ns : float;  (** per-request occupancy of one instance *)
}

type report = {
  offered : int;
  completed : int;
  shed : int;  (** rejected by admission control (an explicit response) *)
  lost : int;  (** neither completed nor shed — must be 0 *)
  redispatched : int;  (** re-queued from crashed instances *)
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
  slo_violation_ns : float;
      (** total width of measurement buckets containing an over-SLO
          completion or a shed *)
  cold_boots : int;
  clones : int;
  warm_hits : int;
  crashes : int;
  restarts : int;
  retired : int;  (** scaled-in *)
  peak_instances : int;
  final_ready : int;
  elapsed_ns : float;  (** measured window: first arrival to last response *)
  trace_hash : int;
}

type t

val create :
  ?seed:int ->
  ?substrate:substrate ->
  ?backend:backend ->
  ?boot_mode:boot_mode ->
  ?policy:Frontdoor.policy ->
  ?autoscale:Autoscaler.params ->
  ?slo_ns:float ->
  ?shed_after_ns:float ->
  ?slo_bucket_ns:float ->
  ?initial:int ->
  ?cost_factor:float ->
  image:Image.t ->
  unit ->
  t
(** Defaults: seed 1, [`Own] substrate, [Unikraft Firecracker] backend,
    [Cold] boots, [Least_loaded] policy, no autoscaler (fixed size),
    1 ms SLO, shedding past 4 ms best-case wait, 5 ms SLO buckets,
    1 initial instance. Fixed: {!Uksched.Supervisor.default_policy}
    restarts, and a 4096-deep front-door queue while no instance is
    ready (past it, requests are shed). [cost_factor] (default 1.0)
    stretches every calibrated cost — boot, clone, activation,
    per-request service — by a host-class multiplier (e.g. an ARM-class
    edge host at 2x the x86 reference; see the edge-computing
    heterogeneity motivation). *)

val costs : t -> costs
val control_engine : t -> Uksim.Engine.t
val control_clock : t -> Uksim.Clock.t

val settle_ns : t -> float
(** The offset {!run} adds before the first arrival (covers the slowest
    initial bring-up path) — workload time 0 in engine time is
    [start time + settle_ns]. Lets experiments aim external events
    (e.g. a {!Ukfault}-driven kill) at workload-relative instants. *)

val ready_ids : t -> int list

val run : t -> Workload.t -> report
(** Bring up the initial fleet, replay the workload (arrivals start
    after a settle window covering initial boots), drive the substrate
    until every request is answered, and report. One-shot per fleet. *)

val start : t -> unit
(** Bring up the initial fleet without a workload — for externally
    driven fleets ([`Engine] substrate): requests then arrive via
    {!submit} (e.g. from [Ukcluster.Host]) and the caller drives the
    shared engine/scheduler. *)

val submit :
  ?flow:int -> ?on_reply:(ok:bool -> latency_ns:float -> unit) -> t -> now_ns:float -> unit
(** Offer one request. [on_reply] fires exactly once, at completion
    ([ok = true]) or shed ([ok = false]). [flow] keys consistent-hash
    placement (default: drawn from the fleet's RNG). *)

val kill : t -> now_ns:float -> iid:int -> bool
(** Crash a ready instance (fault injection): pending requests are
    re-dispatched, the slot respawns supervisor-style. [false] if [iid]
    is not currently ready. *)

(** {2 Drain / freeze hooks}

    Handles a cluster tier needs on a whole host's fleet: draining
    around a migration pause, freezing for a host-stall fault. Both are
    meant for externally driven fleets ({!start}/{!submit}). *)

val set_draining : t -> bool -> unit
(** While draining, {!submit} answers every request with an immediate
    shed (an explicit response, never a drop); in-flight requests keep
    completing. *)

val freeze : t -> now_ns:float -> unit
(** Host stall: completions due while frozen are held (not lost) and
    land at the thaw instant, with the stall counted in their latency.
    Idempotent. *)

val thaw : t -> now_ns:float -> unit
(** End a freeze: held completions fire now, and every instance's
    backlog horizon shifts by the stall — capacity lost to the freeze is
    really lost. No-op when not frozen. *)

val frozen : t -> bool

val report : t -> report
(** Accumulated stats so far — for externally driven fleets; {!run}
    returns the same thing. *)

val source : t -> Uktrace.Source.t
(** The fleet's ["ukfleet.fleet"] source, registered at {!create}: the
    counts [offered], [completed], [shed], [redispatched],
    [cold_boots], [clones], [warm_hits], [crashes] and [restarts], then
    the levels [instances_up], [instances_warming], [lb_queue_depth],
    [queue_depth] (outstanding requests, queued ones included) and
    [window_p99_us] (the last control window's p99, 0 without an
    autoscaler). The autoscaler decides on exactly these readings.
    {!Uktrace.Registry.reset} leaves the source untouched. *)

val trace_hash : t -> int
(** Rolling hash over every fleet event (arrival, dispatch, completion,
    shed, boot, crash, scale decision) with its timestamp. Equal seeds
    and configs must give equal hashes. *)
