(** Phi-accrual heartbeat failure detection over the cluster network.

    The front node pings each host on a seeded-jittered interval; pings
    and pongs are real {!Netmodel} transfers, so an asymmetric partition
    (host reaches the front, front's traffic to it vanishes — or the
    reverse) starves the pong stream exactly as it would in a real
    deployment. Suspicion is a continuous scale: [phi] is the number of
    decades of improbability in the current pong silence, against an
    EWMA of the observed inter-pong gap. Crossing [suspect_phi] fires
    [on_suspect] (the router quarantines, keeping ring arcs); a later
    pong fires [on_recover]; crossing phi 8.0 fires [on_dead] and is
    {e sticky} — a collected host must be re-admitted by the control
    plane, not by one late packet.

    Publishes its counts and per-host state as {!source}. *)

type status = Alive | Suspect | Dead
type params = private { interval_ns : float; suspect_phi : float }

val params : ?interval_ns:float -> ?suspect_phi:float -> unit -> params
(** Defaults: 5 ms interval, suspect at phi 1.0. Fixed: dead at phi 8.0,
    64 B pings and pongs. A [suspect_phi] above 8.0 is rejected.
    [suspect_phi = 0.0] is the planted-bug configuration: every host is
    suspected on its first silent instant. *)

type t

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  rng:Uksim.Rng.t ->
  net:Netmodel.t ->
  front:int ->
  hosts:int list ->
  params:params ->
  probe:(int -> bool) ->
  running:(unit -> bool) ->
  ?on_suspect:(now_ns:float -> int -> unit) ->
  ?on_recover:(now_ns:float -> int -> unit) ->
  ?on_dead:(now_ns:float -> int -> unit) ->
  unit ->
  t
(** [probe h] is whether host [h] would answer a ping arriving now
    (crashed/frozen hosts do not). [running ()] gates re-arming the
    heartbeat train so the engine can drain when the experiment ends. *)

val start : t -> unit
(** Schedules the first ping to each host, staggered across one
    interval. *)

val status : t -> int -> status

val source : t -> Uktrace.Source.t
(** The detector's ["ukcluster.detector"] source, registered at
    {!create}: the counts [suspects], [recovers] and [deads], then
    [phi_<host>] and [status_<host>] (0 alive, 1 suspect, 2 dead) as
    levels. {!Uktrace.Registry.reset} never zeroes the counts. *)
