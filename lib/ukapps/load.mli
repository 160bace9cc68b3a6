(** The closed-loop load generator for every TCP server in ukapps: the
    wrk and redis-benchmark stand-ins (paper Figs 12, 13, 18) and the
    line-protocol clients, written once.

    A {!proto} is a value built next to its server ({!Httpd.client},
    {!Resp_store.client}, {!Store.client}, {!Infer.client}); the
    transport is picked when the load is composed, as {!Serve} does for
    servers. Each connection sends [pipeline] requests at a time and
    waits for their replies. The request count is given explicitly
    instead of a wall-clock duration: in a simulator a fixed sample with
    rate = n / elapsed is the same estimator without the dead time.

    One accounting rule holds on both transports. A request is charged
    when it is formatted. A reply is charged, counted and timed only when
    the protocol's scanner completes it, and its latency runs from its
    batch's send to that scan. *)

type reply = [ `Ok | `Err ]

type scanner = bytes -> int -> int -> on_reply:(reply -> unit) -> bool
(** [scan buf off len ~on_reply] feeds [len] bytes at [off] of the reply
    stream; [on_reply] fires once per complete reply, however the stream
    is segmented. The result is [false] once the stream can no longer be
    framed: the client then ends the connection. A scanner never
    raises. *)

type cost = { request : int; reply : int }
(** Client cycles to format one request and to consume one reply. *)

type proto = {
  name : string;  (** labels the client threads *)
  requests : conn:int -> first:int -> int -> string;
      (** [requests ~conn ~first] is connection [conn]'s request stream,
          called once per connection ([first] is the load-wide number of
          its first request); it maps the connection's sequence number to
          the request bytes *)
  socket : cost;  (** client costs on {!Serve.Socket} *)
  netbuf : cost;  (** client costs on {!Serve.Netbuf} *)
  scanner : unit -> scanner;  (** a fresh reply scanner per connection *)
}

val fixed : name:string -> reply_len:int -> (conn:int -> first:int -> int -> string) -> proto
(** A newline-request protocol with fixed-size replies ({!Store},
    {!Infer}). Reply boundaries are byte arithmetic, immune to how TCP
    segments the stream; a reply whose first byte is ['E'] is an
    [`Err]. *)

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  errors : int;
}

type agg
(** Shared aggregator for SMP runs: {!spawn} one client group per core
    into the same [agg], drive the cores (e.g. [Uksmp.Smp.run]), then
    read {!result_of_agg}. Every finishing connection pushes the end
    time forward, so elapsed closes with the slowest core. *)

val new_agg : unit -> agg

val spawn :
  transport:Serve.transport ->
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  connections:int ->
  requests:int ->
  ?pipeline:int ->
  ?port_for:(int -> int option) ->
  agg:agg ->
  proto ->
  unit
(** Spawn [connections] client threads on [sched] sharing [requests],
    without driving the scheduler; [pipeline] defaults to 1, and
    [port_for ci] forces connection [ci]'s source port (RSS steering).
    On {!Serve.Socket} a batch leaves with one blocking send and every
    receive feeds the scanner. On {!Serve.Netbuf} a batch leaves through
    an {!Nbio} writer and the flow's rx sink feeds the scanner in place,
    so the client makes no counted copies. When the server closes the
    connection, or its reply stream cannot be framed, the requests still
    unanswered count as errors and that connection ends. *)

val result_of_agg : agg -> t_start:float -> result

val run :
  transport:Serve.transport ->
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  connections:int ->
  requests:int ->
  ?pipeline:int ->
  proto ->
  result
(** {!spawn}, then drive [sched] until the load completes; call from
    outside any scheduler thread. *)
