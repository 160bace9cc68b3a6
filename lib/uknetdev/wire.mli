(** The physical medium between a device backend and its peer: a
    latency/bandwidth-modelled point-to-point link (the paper's direct 10G
    cable), plus synthetic peers (a DPDK-testpmd-like sink, an echo).

    The wire moves {!Netbuf.t} descriptors by ownership handoff: [send]
    consumes the buffer, and delivery hands it to the peer's receiver
    (which must eventually {!Netbuf.recycle} it). The wire never loses,
    duplicates or corrupts a frame; [Ukfault.Faultnet] wrapped around a
    device does. *)

type endpoint

val create_pair :
  engine:Uksim.Engine.t ->
  ?latency_ns:float ->
  ?bandwidth_gbps:float ->
  unit ->
  endpoint * endpoint
(** Bidirectional link; default 5 µs latency, 10 Gb/s. Frames sent faster
    than the line rate are serialized (delivery times push out).
    Registers one {!source} per endpoint, the first endpoint's first. *)

val send : endpoint -> Netbuf.t -> unit
(** Transmit a frame towards the peer endpoint, consuming the buffer. *)

val set_receiver : endpoint -> (Netbuf.t -> unit) option -> unit
(** Who gets frames arriving at this endpoint (None = count, recycle and
    drop). The receiver takes ownership of each delivered buffer. *)

val attach_sink : endpoint -> unit
(** testpmd-style measurement peer: count frames/bytes, never reply. *)

val attach_echo : endpoint -> unit
(** Reflect every frame back (source/dest rewriting is the sender's
    problem — this is a raw reflector). *)

val source : endpoint -> Uktrace.Source.t
(** The endpoint's ["uknetdev.wire"] source: [rx_frames] and [rx_bytes]
    delivered to it, and [tx_frames] sent from it. *)
