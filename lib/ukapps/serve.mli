(** The transport seam: every TCP server in ukapps is written once, as a
    framer plus a handler, and the datapath is chosen when the system is
    composed (MirageOS's functor-driven shape, at value level).

    - A {b framer} finds one complete request in [buf[pos, limit)] —
      scanning in place, so on the netbuf path the request is read
      straight out of the driver's ring buffer.
    - A {b handler} serves one framed request, writing its reply into the
      connection's {!sink}. It keeps the app's generic-vs-specialized
      work (allocations, cost constants) by looking at the transport it
      was built for.
    - A {b transport} owns everything else: listening, accepting,
      receiving, accumulating a request that straddles segments, the
      optional worker hop, and the reply flush. *)

type transport =
  | Socket
      (** The priced socket/copy path: an accept thread, one pinned thread
          per connection, blocking [recv] into an accumulator, replies
          sent with one {!Uknetstack.Stack.Tcp_socket.send}. *)
  | Netbuf of { rtc : bool }
      (** The zero-copy path: fast accept, a per-connection
          {!Uknetstack.Tcp.set_rx_sink}, in-place framing of ring netbufs
          and {!Nbio} replies. A request that straddles a segment falls
          back to a counted-copy stash until the pipeline realigns.
          [rtc = true] runs handlers to completion inside packet
          processing; [rtc = false] ablates that by hopping each received
          chunk through one pinned worker thread. *)

type sink
(** A connection's outgoing channel: replies on a server, requests on a
    client ({!Load}). *)

val sink :
  transport ->
  clock:Uksim.Clock.t ->
  stack:Uknetstack.Stack.t ->
  Uknetstack.Stack.Tcp_socket.flow ->
  sink
(** [flow]'s channel on [transport]: a [Buffer] sent with one
    {!Uknetstack.Stack.Tcp_socket.send} on [Socket], an {!Nbio} writer on
    [Netbuf]. *)

val write : sink -> string -> unit
(** Queue reply bytes (on the netbuf path they are written straight into
    pool netbufs, charged as one memcpy). *)

val send : sink -> unit
(** Send what is queued now, blocking for socket buffer space on the
    socket path: thread context only. *)

val flush : sink -> unit
(** Send what is queued now, without blocking — safe from engine context
    (deferred replies). The transport itself flushes once per received
    chunk, blocking for socket buffer space on the socket path. *)

type 'req frame =
  | Frame of 'req * int  (** a complete request and the offset just past it *)
  | Partial  (** the request at [pos] is incomplete: wait for more bytes *)
  | Bad of string
      (** a framing error: this reply is sent, then the connection is
          closed *)

val start :
  transport ->
  name:string ->
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  port:int ->
  frame:(bytes -> int -> int -> 'req frame) ->
  handle:(sink -> 'req -> unit) ->
  unit
(** Listen on [port] (synchronously, so the port is open before any other
    core's virtual time reaches a connect) and serve every connection.
    Threads are pinned to [sched]'s core and named after [name]
    ([name-accept], [name-conn], [name-fast-worker]). *)

val line : bytes -> int -> int -> string frame
(** Framer for newline-terminated requests: the line without its ['\n']. *)
