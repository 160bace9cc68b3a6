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
      receiving, stashing a request that straddles segments, the
      optional worker hop, and the reply flush.

    Both transports receive the same way: a received chunk is framed in
    place while nothing is stashed; a request it leaves unfinished is
    stashed, and later chunks are appended to the stash and framed
    there. A connection holds at most 64 KiB of a request its framer
    cannot frame yet: past that the replies already written are flushed
    and the connection is closed, as Redis closes a client past its
    query-buffer limit. *)

type transport =
  | Socket
      (** The priced socket/copy path: an accept thread, one thread
          per connection, blocking [recv] of copied chunks, replies sent
          with one {!Uknetstack.Stack.Tcp_socket.send}. *)
  | Netbuf of { rtc : bool }
      (** The zero-copy path: fast accept, a per-connection
          {!Uknetstack.Tcp.set_rx_sink}, in-place framing of ring netbufs
          and {!Nbio} replies. What is stashed leaves the netbuf by a
          counted copy. [rtc = true] runs handlers to completion inside
          packet processing; [rtc = false] ablates that by hopping each
          received chunk through one worker thread. *)

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

val defer : sink -> string -> unit
(** Reserve the next reply's place in the stream, for a reply that is not
    known yet (a COMMIT waiting for its journal record, an inference
    waiting for its batch). Replies written after it wait behind it, so a
    connection's replies leave in request order. The returned function
    supplies the reply, releases every reply it held back, and sends them
    without blocking; call it once, from any context. On the socket path
    what the send buffer cannot take yet is sent by the connection thread
    when space opens. The transport itself flushes once per received
    chunk. *)

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
    Threads run on [sched]'s core and are named after [name]
    ([name-accept], [name-conn], [name-fast-worker]). *)

val line : bytes -> int -> int -> string frame
(** Framer for newline-terminated requests: the line without its ['\n']. *)
