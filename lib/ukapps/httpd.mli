(** An nginx-like static HTTP/1.1 server (Figs 13, 14, 15, 22).

    Single worker, keep-alive connections, per-request buffers from the
    configured ukalloc backend (so Fig 15's allocator choice matters).
    Content comes from memory or through vfscore; Fig 22's SHFS path is
    {!Webcache}. *)

type content =
  | In_memory of (string * string) list  (** path -> body *)
  | Via_vfs of Ukvfs.Vfs.t  (** open/read/close through vfscore *)

type t

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
    tracepoints; its counters are the worker's {!source}.

    On {!Serve.Socket} every request takes a 1 KiB buffer from [alloc]
    (nginx's request pool — a failed allocation sheds the request with a
    503) and pays the generic parse and respond costs. On
    {!Serve.Netbuf} (Fig 14's netbuf port) the request line is parsed in
    place, there is no pool, and the budget shrinks to a scan plus a
    template write.

    An [In_memory] page's 200 reply is rendered once, when the server is
    created, and written as is for every GET of it on either transport;
    VFS content is rendered per request. *)

val create : make
(** [serve ~transport:Socket]. *)

val create_fast : make
(** [serve ~transport:(Netbuf {rtc = true})]. *)

val frame : bytes -> int -> int -> string option Serve.frame
(** The framer both transports run: a request ends at the blank line
    after its headers. It carries [Some path] when its request line reads
    [GET <path> <version>], [None] (answered 400) otherwise. *)

val source : t -> Uktrace.Source.t
(** The worker's ["ukapps.httpd"] source: [requests], [errors_404],
    [errors_503] (requests shed in degraded mode, when the per-request
    pool allocation failed, e.g. under a {!Ukfault.Faultalloc} OOM sweep)
    and [bytes_sent]. *)

(** {1 Load generation} *)

val client : ?path:string -> unit -> Load.proto
(** wrk (paper Fig 13: 30 connections, the static 612 B page): keep-alive
    GETs of [path] (default ["/index.html"]). Replies are scanned
    incrementally (status line, Content-Length, body); a status other
    than 200 is an error, and a Content-Length that is negative, not
    decimal or too large ends the connection with one error. *)
