(** TCP engine: connection state machines, retransmission, flow control.

    Transport-only logic, decoupled from IP/device concerns through an
    {!io} record the stack supplies (segment transmit, timer arming, thread
    wakeups). Implements the standard state diagram (LISTEN through
    TIME_WAIT), cumulative ACKs, receiver flow control, go-back-N
    retransmission with exponential backoff, and fast retransmit on three
    duplicate ACKs (RFC 5681 §2: no data, SYN and FIN clear, the window
    unchanged). Out-of-order segments are dropped and recovered by
    retransmission (lwIP-without-SACK behaviour); congestion control is
    omitted — the paper's evaluation runs on an uncongested direct link.

    The datapath currency is {!Uknetdev.Netbuf.t}: inbound segments arrive
    as descriptors ({!on_segment_nb}), outbound payloads leave as
    descriptors ({!send_nb}, [Tx_netbuf]). In-order data can be consumed in
    place by a per-connection rx sink ({!set_rx_sink}) — the run-to-
    completion fast path — with the legacy socket receive queue (an
    explicit, counted copy) as fallback. *)

type state =
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

val state_to_string : state -> string

type conn

type tx_payload =
  | Tx_bytes of bytes  (** legacy path: the IP layer materializes a buffer *)
  | Tx_netbuf of Uknetdev.Netbuf.t
      (** zero-copy path: ownership passes to the callee, which pushes
          headers into the descriptor's headroom and hands it to TX *)

type io = {
  now_cycles : unit -> int;
  charge : int -> unit;  (** burn guest cycles *)
  tx_segment : conn -> Pkt.Tcp.t -> tx_payload -> unit;
      (** hand a fully-specified segment (header template + payload) to the
          IP layer; ports are already filled in *)
  set_timer : conn -> delay_cycles:int -> unit -> unit;
      (** schedule the connection's retransmission timer and return what
          cancels it; the stack must call {!on_timer} when it fires. A
          connection cancels its previous timer before it sets a new one
          and when it disarms, so at most one is ever pending. *)
  wake : Uksched.Sched.tid -> unit;
  retransmitted : fast:bool -> unit;
      (** a segment went out again: on a retransmission timeout, or on
          three duplicate ACKs when [fast] *)
  notify_accept : conn -> unit;  (** a passive open reached ESTABLISHED *)
}

val mss : int

(** {1 Connection lifecycle} *)

val create_listen : io -> local:Addr.Ipv4.t * int -> conn
(** A listening "template" connection; incoming SYNs clone it. *)

val create_active :
  io -> local:Addr.Ipv4.t * int -> remote:Addr.Ipv4.t * int -> iss:int -> conn
(** Active open: allocates the connection and transmits the SYN. *)

val derive_passive : conn -> remote:Addr.Ipv4.t * int -> iss:int -> peer_seq:int -> conn
(** Child connection for a SYN (with sequence number [peer_seq]) arriving
    at a listener: moves to SYN_RCVD and answers SYN+ACK. *)

val state : conn -> state
val local_addr : conn -> Addr.Ipv4.t * int
val remote_addr : conn -> Addr.Ipv4.t * int

(** {1 Input path} *)

val on_segment_nb : conn -> Pkt.Tcp.t -> Uknetdev.Netbuf.t -> unit
(** Process one inbound segment whose payload window is [nb] (header
    already validated/checksummed and pulled). Consumes the descriptor on
    every path: handed to the rx sink, copied (counted) into the receive
    queue, or recycled. *)

val on_timer : conn -> unit
(** Retransmission / TIME_WAIT timer callback. *)

val set_rx_sink : conn -> (Uknetdev.Netbuf.t -> unit) option -> unit
(** Fast-path delivery: in-order payload descriptors are handed to this
    sink (which takes ownership) instead of the socket receive queue. If
    the sink transmits on the same connection during the callback, that
    segment carries the ACK and the pure ACK is suppressed (piggyback). *)

(** {1 Application side} *)

val send : conn -> bytes -> int
(** Queue application data; returns bytes accepted (bounded by the send
    buffer). Transmits immediately as far as the peer's window allows. *)

val send_nb : conn -> Uknetdev.Netbuf.t -> int
(** Zero-copy send: takes ownership of the buffer and transmits it as one
    segment when the window allows (first transmission shares the storage;
    only a retransmission copies). Buffers over one MSS fall back to the
    counted byte path. Returns bytes accepted (0 — and the buffer is
    recycled — when the connection cannot send). *)

val recv : conn -> max:int -> bytes option
(** Dequeue up to [max] bytes of in-order data; [None] when the queue is
    empty (check {!recv_eof} to distinguish would-block from EOF). Also
    sends a window update if consuming reopened a closed receive
    window. *)

val recv_available : conn -> int
val recv_eof : conn -> bool
(** Peer FIN received and queue drained. *)

val close : conn -> unit
(** Send FIN (half-close of our side). *)

val abort : conn -> unit
(** RST out, connection to CLOSED. *)

val state_hash : conn -> int
(** FNV-1a digest of the protocol-visible connection state (state, send
    and receive sequence space, loss-recovery counters). The zero-copy and
    copy datapaths must produce identical hashes for identical traffic —
    the equivalence property tests compare these. *)

(** {1 Blocking-support hooks (used by the stack's socket layer)} *)

val set_recv_waiter : conn -> Uksched.Sched.tid option -> unit
val set_send_waiter : conn -> Uksched.Sched.tid option -> unit
val set_connect_waiter : conn -> Uksched.Sched.tid option -> unit
