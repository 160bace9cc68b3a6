(** Deterministic network fault injection over the uknetdev API.

    [wrap] interposes on a {!Uknetdev.Netdev.t} without its consumers
    noticing: the wrapped device has the identical record type, so a
    network stack bound to it exercises its loss-recovery machinery
    against injected packet drop, duplication, reordering (via delayed
    redelivery on the event engine), bit corruption, and link flap
    windows.

    All randomness flows through the supplied {!Uksim.Rng.t}: equal seeds
    give byte-for-byte identical fault schedules, so every chaos run
    replays exactly. Per transmitted frame the injector consumes a fixed
    number of draws regardless of which faults fire, keeping the stream
    aligned across plan changes that only alter rates. *)

type plan = {
  drop : float;  (** per-frame drop probability in [0,1] *)
  drop_every : int;  (** additionally drop every Nth frame (0 = off); the
                         counter only advances on frames the random faults
                         let through, giving a systematic loss pattern *)
  duplicate : float;  (** per-frame duplication probability *)
  corrupt : float;  (** per-frame single-bit-flip probability *)
  reorder : float;  (** probability a frame is held back and redelivered
                        after [reorder_delay_ns] (overtaken by later
                        frames) *)
  reorder_delay_ns : float;
  flap_period_ns : float;  (** link flap cycle length (0 = link never
                               flaps) *)
  flap_down_ns : float;  (** trailing window of each period during which
                             the link is down and every frame is lost *)
}

val plan :
  ?drop:float ->
  ?drop_every:int ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?reorder:float ->
  ?reorder_delay_ns:float ->
  ?flap_period_ns:float ->
  ?flap_down_ns:float ->
  unit ->
  plan
(** All faults default to off (rate 0.0 / every 0); [reorder_delay_ns]
    defaults to 50 µs. *)

type t

val wrap :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  rng:Uksim.Rng.t ->
  plan:plan ->
  Uknetdev.Netdev.t ->
  t
(** Faults are injected on the transmit path (between the stack and the
    inner device); wrap both endpoints of a link to damage both
    directions. Receive-side calls pass straight through. The wrapped
    [tx_burst] consumes every frame it is offered: it returns the count
    offered, and recycles each frame the inner device refuses for want
    of ring room (counted as [refused]), as it does a dropped one. *)

val dev : t -> Uknetdev.Netdev.t
(** The wrapped device to hand to the consumer (e.g.
    {!Uknetstack.Stack.create}). *)

val source : t -> Uktrace.Source.t
(** The injector's ["ukfault.net"] source: [forwarded] (unharmed frames
    the inner device accepted, whether on time, as a duplicate or as a
    delayed redelivery), [dropped] (random and systematic drops),
    [refused] (frames, duplicates and delayed redeliveries the inner
    device had no ring room for), [duplicated], [corrupted] (frames with
    a bit flipped, counted there and not under [forwarded]), [reordered]
    and [flap_dropped] (frames lost to a link-down window). With ring
    room for every frame, once the delayed redeliveries have fired,
    [forwarded + corrupted + dropped + flap_dropped] is the frames
    offered plus [duplicated]. *)

val link_up : t -> bool
(** Whether the current instant falls outside a flap-down window. *)
