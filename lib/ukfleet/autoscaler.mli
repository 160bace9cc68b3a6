(** Reactive autoscaling: scale-out/in decisions with hysteresis.

    The controller is deliberately simple and fully deterministic — a
    pure function of its observations plus two pieces of state (cooldown
    stamps and a consecutive-low-tick counter). Every control interval
    the fleet feeds it its own readings, the ones {!Fleet.source}
    publishes.

    Scale-out is demand-driven: keep roughly [target_queue] outstanding
    requests per ready instance, counting instances already warming so a
    burst does not double-order capacity; an SLO breach (windowed p99
    above the fleet's SLO) adds a 50% capacity kick on top. Scale-in is
    conservative: only after [scale_in_hold] consecutive low ticks
    (hysteresis), one instance at a time, respecting [cooldown_in_ns] —
    the asymmetry that stops a diurnal trough from thrashing the pool. *)

type params = {
  interval_ns : float;  (** control-loop period *)
  target_queue : float;  (** outstanding requests per ready instance *)
  scale_in_hold : int;  (** low ticks required before one scale-in *)
  cooldown_out_ns : float;  (** min spacing between scale-outs *)
  cooldown_in_ns : float;  (** min spacing between scale-ins *)
  min_instances : int;
  max_instances : int;
}

val default : params
(** 2 ms interval, 4 outstanding per instance, 5-tick hold, 2 ms out /
    50 ms in cooldowns, 1..64 instances. *)

type action = Hold | Scale_out of int | Scale_in of int

type t

val create : params -> t
val params : t -> params

val decide :
  t ->
  now_ns:float ->
  ready:int ->
  warming:int ->
  outstanding:int ->
  p99_ns:float ->
  slo_ns:float ->
  action
(** One control tick. [outstanding] counts dispatched-but-uncompleted
    plus front-door-queued requests; [p99_ns] is the completion-latency
    p99 of the last window (0 when idle). *)
