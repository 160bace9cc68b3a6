(** An nginx-like static HTTP/1.1 server (Figs 13, 14, 15, 22).

    Single worker, keep-alive connections, per-request buffers from the
    configured ukalloc backend (so Fig 15's allocator choice matters).
    Content can come from memory, through vfscore, or straight from SHFS
    (the Fig 22 specialization axis when combined with {!Webcache}). *)

type content =
  | In_memory of (string * string) list  (** path -> body *)
  | Via_vfs of Ukvfs.Vfs.t  (** open/read/close through vfscore *)
  | Via_shfs of Ukvfs.Shfs.t  (** direct hash-filesystem lookups *)

type t

type stats = {
  requests : int;
  errors_404 : int;
  errors_503 : int;
      (** requests shed in degraded mode (the per-request pool allocation
          failed — e.g. under a {!Ukfault.Faultalloc} OOM sweep) *)
  bytes_sent : int;
}

val default_page : string
(** The paper's 612-byte static page. *)

type make =
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  content ->
  t

val serve : transport:Serve.transport -> make
(** Serve [content] on [port] (default 80) over [transport]. Multi-worker
    SMP mode: create one instance per core, each on its own per-core
    stack/clock/alloc view — RSS then spreads connections across them
    like SO_REUSEPORT sharding. [core] (default 0) labels this worker's
    tracepoints; stats also register as an ["ukapps.httpd"]
    {!Uktrace.Registry} source.

    On {!Serve.Socket} every request takes a 1 KiB buffer from [alloc]
    (nginx's request pool — a failed allocation sheds the request with a
    503) and pays the generic parse and respond costs. On
    {!Serve.Netbuf} (Fig 14's netbuf port) the request line is parsed in
    place, there is no pool, and the budget shrinks to a scan plus a
    template write. *)

val create : make
(** [serve ~transport:Socket]. *)

val create_fast : make
(** [serve ~transport:(Netbuf {rtc = true})]. *)

val stats : t -> stats

val sum_stats : t list -> stats
(** Aggregate over SMP workers. *)
