(** A Redis-like in-memory key-value server over the TCP stack (Figs 12
    and 18).

    Single-threaded event handling (Redis's model, which is why the paper
    pairs it with the cooperative scheduler). Values live in memory
    obtained from the configured ukalloc backend, so allocator choice
    shows up directly in sustained throughput. Supports PING, SET, GET,
    DEL, EXISTS, INCR, LPUSH, LRANGE, DBSIZE and FLUSHALL. *)

type t

type stats = { commands : int; hits : int; misses : int }

type make =
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  ?share_with:t ->
  ?persist:Ukstore.Store.t ->
  unit ->
  t

val serve : transport:Serve.transport -> make
(** Serve on [port] (default 6379) over [transport]. [share_with] reuses
    another instance's key space — SMP workers on per-core stacks then
    serve one logical database (commands and hit/miss counters stay
    per-worker; see {!sum_stats}). [core] (default 0) labels this
    worker's tracepoints; stats also register as an ["ukapps.resp"]
    {!Uktrace.Registry} source.

    Commands are framed in place on either transport; a malformed one is
    answered with [-ERR Protocol error] and the connection is closed.
    On {!Serve.Socket} every command runs through the generic engine
    (robj allocations per argument, the generic cost envelope). On
    {!Serve.Netbuf} the hot commands (PING/GET/SET/DEL/INCR) take a
    specialized dispatch without robj churn; everything else falls back
    to the generic engine.

    [persist] mirrors the string keyspace (SET/DEL/INCR/FLUSHALL) into a
    crash-consistent {!Ukstore.Store}: on creation the keyspace is
    hydrated from the store's last durable commit, and mutations
    write through (durable once {!persist_commit} — or a server-side
    auto-commit policy — runs). List keys stay memory-only. *)

val create : make
(** [serve ~transport:Socket]. *)

val create_fast : make
(** [serve ~transport:(Netbuf {rtc = true})]. *)

val stats : t -> stats

val sum_stats : t list -> stats
(** Aggregate over SMP workers sharing one database. *)

val dbsize : t -> int

val persist_commit : t -> int option
(** Flush the mirrored keyspace to the backing store as one commit;
    [None] when no [persist] store is attached (or the commit failed).
    The returned commit hash is durable. *)

val state_hash : t -> int
(** Order-independent digest of the live string keyspace: two servers
    hold the same logical state iff the hashes agree, regardless of
    command interleaving. *)

val execute : t -> string list -> Resp.value
(** Run one command directly (bypassing the network) — used by unit
    tests. *)

(** {1 Load generation} *)

type workload = Get | Set
(** GET hits pre-populated keys; SET writes fresh values (exercising the
    server allocator differently — Fig 18's request-type axis). *)

val client : ?value_size:int -> workload -> Load.proto
(** redis-benchmark (paper Figs 12, 18: 30 connections, 100k requests,
    pipelining 16). The load's [n]th request uses key
    [key:%06d] of [n land 0xfff], so populating 4096 keys makes every
    GET a hit; SET values are [value_size] (default 3) bytes. Replies are
    counted by an incremental boundary scanner without materializing
    values; [-ERR] replies are errors. *)
