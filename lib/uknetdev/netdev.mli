(** The uknetdev API (paper §3.1).

    Decouples drivers from the network stack / low-level application. The
    application fully operates the driver: it chooses the RX buffer
    policy per queue (zero-copy descriptor handoff, or the legacy copy
    into application-provided buffers), chooses polling or interrupt mode,
    and moves packets with burst send/receive calls that mirror the
    paper's

    {v
    uk_netdev_tx_burst(dev, queue_id, pkt, cnt)
    uk_netdev_rx_burst(dev, queue_id, pkt, cnt)
    v}

    Both burst directions speak {!Netbuf.t} with ownership handoff:
    [tx_burst] consumes accepted buffers; [rx_burst] transfers each
    returned buffer to the caller, who must eventually {!Netbuf.recycle}
    it. *)

type mode = Polling | Interrupt_driven

type rx_path =
  | Zero_copy
      (** hand ring descriptors to the consumer as-is — the fast path *)
  | Copy_into of (unit -> Netbuf.t option)
      (** legacy path: copy each frame into a consumer-supplied buffer
          (the allocation callback of the bytes era). Each copy charges
          {!Uksim.Cost.memcpy} and the ["uknetdev.copies"] source. *)

type queue_conf = {
  rx_path : rx_path;
  mode : mode;
  rx_handler : (unit -> unit) option;
      (** interrupt callback: invoked on packet arrival / tx room when the
          queue's interrupt line is armed *)
}

type t = {
  name : string;
  mtu : int;
  max_queues : int;
  configure_queue : qid:int -> queue_conf -> unit;
  tx_burst : qid:int -> Netbuf.t array -> int;
      (** Enqueue as many as possible; returns the count accepted (the
          paper's in/out [cnt]). Accepted buffers are consumed; the caller
          keeps ownership of rejected ones. *)
  tx_room : qid:int -> int;
  rx_burst : qid:int -> max:int -> Netbuf.t list;
      (** Up to [max] packets, ownership transferred to the caller. In
          interrupt mode, draining the ring re-arms the queue's interrupt
          line (paper §3.1). *)

  rx_pending : qid:int -> int;
  source : Uktrace.Source.t;
      (** The device's ["uknetdev.<name>"] source: [tx_pkts], [tx_bytes],
          [tx_kicks] (doorbells/backend notifications, VM exits for
          vhost-net), [rx_pkts], [rx_bytes], [rx_irqs] and [rx_dropped]
          (unconfigured queue, ring overflow or rx buffer exhaustion). A
          wrapper built with [{ dev with ... }] shares it, so nothing is
          counted twice. *)
}

(** {1 Driver helpers} *)

type counters
(** A device's ["uknetdev.<name>"] metric group. *)

val counters : string -> counters
(** Register the group for device [name]. *)

val source : counters -> Uktrace.Source.t
val count_tx : counters -> pkts:int -> bytes:int -> unit
val count_kick : counters -> unit

(** One RX queue, as every driver runs it: a bounded ring filled by the
    device side, the queue's {!queue_conf}, and its interrupt line. It
    owns the RX counters. *)
module Rxq : sig
  type t

  val create :
    counters ->
    clock:Uksim.Clock.t ->
    engine:Uksim.Engine.t ->
    ring_size:int ->
    pkt_cost:int ->
    t
  (** [clock] is the consuming core's: it pays [pkt_cost] per dequeued
      packet, the copy on {!Copy_into}, and interrupt delivery. [burst]
      and [pending] first run [engine] up to [clock]'s present, so device
      progress is observed. *)

  val configure : t -> queue_conf -> unit

  val deliver : t -> Netbuf.t -> unit
  (** A frame arrives from the device side. It is dropped (counted and
      recycled) when the queue is unconfigured or the ring is full.
      Otherwise it is queued, and an armed interrupt line fires once: it
      stays inactive until [burst] drains the ring. *)

  val burst : t -> max:int -> Netbuf.t list
  (** The driver's [rx_burst]: up to [max] packets, zero-copy or copied
      into buffers from the queue's allocation callback (a failing
      callback drops the frame). Draining the ring re-arms an
      interrupt-driven queue. *)

  val pending : t -> int
end
