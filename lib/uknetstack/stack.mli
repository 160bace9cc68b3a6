(** An lwIP-class TCP/IP stack over the uknetdev API.

    One instance binds one {!Uknetdev.Netdev.t} queue, owns (or shares) a
    netbuf pool (the paper's "memory pools in Unikraft's networking
    stack"), answers ARP and ICMP echo, and offers UDP and TCP sockets.
    A stack always runs under a scheduler (lwip selects [HAVE_SCHED]):
    packets are processed by the input service thread {!create} spawns,
    woken by the device's rx interrupt.

    The datapath currency is {!Uknetdev.Netbuf.t}: by default RX hands the
    driver ring's descriptors straight to the stack ([Zero_copy]), headers
    are parsed in place, and in-order TCP payload can be consumed in place
    by a connection rx sink — the zero-copy run-to-completion fast path.
    The legacy socket API remains as the copy path; its materializations
    are explicit, counted calls.

    All per-layer processing charges calibrated cycle costs to the stack's
    clock, so socket-API throughput measurements include the full stack
    traversal the paper attributes to lwIP. *)

type conf = {
  mac : Addr.Mac.t;
  ip : Addr.Ipv4.t;
  netmask : Addr.Ipv4.t;
  gateway : Addr.Ipv4.t option;
}

type t

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  sched:Uksched.Sched.t ->
  ?alloc:Ukalloc.Alloc.t ->
  dev:Uknetdev.Netdev.t ->
  ?qid:int ->
  ?rx_batch:int ->
  ?rx_copy:bool ->
  ?tx_coalesce:bool ->
  ?pool:Uknetdev.Netbuf.Pool.t ->
  conf ->
  t
(** Configures queue [qid] of [dev] (default 0) in interrupt mode and
    spawns the stack's input service thread on [sched], a pinned daemon
    that processes packets whenever the device raises its rx interrupt.
    In multi-queue RSS setups one stack instance owns each queue, all
    sharing the device's MAC/IP. A pool of 512 netbufs is created, each
    backed by [alloc] from the start when given — the paper's "memory
    pools in the networking stack" — unless an external [pool] is
    supplied (the shared-pool ablation passes one pool to every stack);
    a netbuf's host storage is made on its first take. [rx_batch] bounds
    descriptors per poll (default 64; 1 = batching ablated). [rx_copy]
    reverts RX to the legacy copy-out-of-the-ring path. [tx_coalesce]
    defers frames transmitted inside a poll window into one burst (one
    doorbell). Bring-up charges lwIP-scale init cost. *)

val conf : t -> conf

val pool : t -> Uknetdev.Netbuf.Pool.t
(** The stack's netbuf pool: its own, or the external one it was created
    with. *)

val source : t -> Uktrace.Source.t
(** The stack's ["uknetstack.stack"] source: [rx_eth], [rx_arp],
    [rx_icmp], [rx_udp], [rx_tcp], [rx_drop] (undecodable, no socket,
    checksum failures), [tx_pkts], [arp_requests], [tcp_retransmits] and
    [tcp_fast_retransmits], each counted as it happens. *)

val alloc_buf : t -> Uknetdev.Netbuf.t
(** Take a TX buffer from the stack's pool (heap fallback when exhausted).
    Fast-path handlers fill it and hand it to {!Tcp_socket.send_nb}. *)

(** {1 UDP sockets} *)

module Udp_socket : sig
  type stack := t
  type t

  val bind : stack -> port:int -> t
  (** Raises [Invalid_argument] if the port is taken or out of range. *)

  val sendto : t -> dst:Addr.Ipv4.t * int -> bytes -> unit
  val recvfrom : ?block:bool -> t -> (Addr.Ipv4.t * int * bytes) option
  (** [block:true] (default false) parks the thread until a datagram
      arrives. *)

  val close : t -> unit
end

(** {1 TCP sockets} *)

module Tcp_socket : sig
  type stack := t
  type listener
  type flow = Tcp.conn

  val listen : stack -> port:int -> ?backlog:int -> unit -> listener
  val accept : ?block:bool -> listener -> flow option

  val set_fast_accept : listener -> (flow -> unit) option -> unit
  (** Run-to-completion accept: each new connection is handed to this hook
      from within packet processing (typically to install a
      {!Tcp.set_rx_sink}) instead of being queued for blocking
      {!accept}. *)

  val connect : stack -> ?lport:int -> dst:Addr.Ipv4.t * int -> unit -> flow
  (** Blocks the calling thread until established; raises [Failure] if
      the connection is refused/aborted. [lport] forces the
      source port (so clients can steer the flow's RSS hash to a chosen
      queue); raises [Invalid_argument] if it is out of range or already
      used for this destination. Default: a fresh ephemeral port. *)

  val send : ?block:bool -> stack -> flow -> bytes -> int
  (** Bytes accepted into the send buffer. [block:true] waits for buffer
      space until everything is queued. *)

  val send_nb : stack -> flow -> Uknetdev.Netbuf.t -> int
  (** Zero-copy send: ownership of the buffer passes to TCP (see
      {!Tcp.send_nb}); no socket-layer enqueue cost. *)

  val recv : ?block:bool -> stack -> flow -> max:int -> bytes option
  (** [Some data] (non-empty) when in-order data is available; [None] at
      EOF (peer closed, queue drained). When the queue is merely empty:
      [block:true] parks the thread until data or EOF; [block:false]
      (default) returns [Some Bytes.empty] as a would-block marker. *)

  val close : stack -> flow -> unit
  val state : flow -> Tcp.state
end
