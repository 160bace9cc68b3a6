(** A Redis-like in-memory key-value server over the TCP stack (Figs 12
    and 18).

    Single-threaded event handling (Redis's model, which is why the paper
    pairs it with the cooperative scheduler). Values live in memory
    obtained from the configured ukalloc backend, so allocator choice
    shows up directly in sustained throughput. Supports PING, SET, GET,
    DEL, EXISTS, INCR, LPUSH, LRANGE, DBSIZE and FLUSHALL. *)

type t

type make =
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  ?share_with:t ->
  unit ->
  t

val serve : transport:Serve.transport -> make
(** Serve on [port] (default 6379) over [transport]. [share_with] reuses
    another instance's key space — SMP workers on per-core stacks then
    serve one logical database (the counters of each worker's {!source}
    stay its own). [core] (default 0) labels this worker's
    tracepoints.

    Commands are framed in place on either transport; a malformed one is
    answered with [-ERR Protocol error] and the connection is closed.
    On {!Serve.Socket} every command runs through the generic engine
    (robj allocations per argument, the generic cost envelope). On
    {!Serve.Netbuf} the hot commands (PING/GET/SET/DEL/INCR) take a
    specialized dispatch without robj churn; everything else falls back
    to the generic engine. *)

val create : make
(** [serve ~transport:Socket]. *)

val frame : bytes -> int -> int -> string list Serve.frame
(** The framer both transports run: one command, an array of bulk
    strings ([*N\r\n] then [N] times [$len\r\narg\r\n]), framed in
    place. [N] is at most 64, and each count is 1-18 ASCII decimal
    digits; anything else is [Bad]. *)

val source : t -> Uktrace.Source.t
(** The worker's ["ukapps.resp"] source: [commands], [hits] and
    [misses]. *)

val dbsize : t -> int

val execute : t -> string list -> Resp.value
(** Run one command directly (bypassing the network) — used by unit
    tests. *)

(** {1 Load generation} *)

type workload = Get | Set
(** GET hits pre-populated keys; SET writes fresh values (exercising the
    server allocator differently — Fig 18's request-type axis). *)

val client : workload -> Load.proto
(** redis-benchmark (paper Figs 12, 18: 30 connections, 100k requests,
    pipelining 16). The load's [n]th request uses key
    [key:%06d] of [n land 0xfff], so populating 4096 keys makes every
    GET a hit; SET values are 3 bytes. Replies are
    counted by an incremental boundary scanner without materializing
    values; [-ERR] replies are errors. *)
