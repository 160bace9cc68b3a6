(** Batched ML inference serving — the repo's first compute-dominated
    request shape (ROADMAP: production workloads beyond httpd/RESP).

    The server half of a TorchServe/Triton-style model server, specialized
    unikernel-wise:

    - {b Weights} are a content-addressed file (name = digest) published
      into a {!Ukvfs.Blockfs} store on a {!Ukblock.Blockdev}. At boot,
      {!load} resolves the file through vfscore (mount + stat), then
      streams it with {!Ukvfs.Blockfs.stream}: a deep window of chunk
      reads overlaps host latency and DMA, pages are installed into the
      model arena for page-table-write cycles only (no counted guest
      copy), and the per-page digest samples verify the content address
      on the fly. The full load time is charged to the virtual clock and
      exported on the sticky ["ukapps.infer"] {!Uktrace} source — it is
      the dominant term of a large-model cold boot.
    - {b Requests} ([INF <id> <width>\n]) cost an analytic cycle charge:
      every batch pays one weight-pass sweep proportional to the model
      size, plus a per-item term proportional to the item's width and the
      model size. Batching therefore amortizes the dominant term — the
      latency-vs-throughput knob the admission queue exposes.
    - {b Admission queue}: requests coalesce until [max_batch] are
      waiting (immediate flush) or [max_wait_ns] elapses on the engine
      timer (partial flush). Replies ([OK <id> <digest>\n], fixed
      {!reply_len} bytes) carry a per-request output digest derived from
      (weights digest, id, width), so runs over different transports can
      be checked for state-hash equivalence.

    The server is one {!Serve} framer plus handler, so it runs on either
    transport; {!create} and {!create_fast} pick the socket path and the
    netbuf run-to-completion path. *)

(** {1 Weights} *)

type model = {
  name : string;  (** content address (16 hex digits of [digest]) *)
  digest : int;
  size_mb : int;
  bytes : int;
  load_ns : float;  (** virtual time the boot-time weight stream took *)
}

val publish :
  clock:Uksim.Clock.t ->
  dev:Ukblock.Blockdev.t ->
  ?seed:int ->
  size_mb:int ->
  unit ->
  Ukvfs.Blockfs.t * string
(** Host-side population: format [dev] as a Blockfs store and write a
    deterministic seeded weight file of [size_mb] MiB. Returns the store
    and the file's content-address name. Same [seed] and [size_mb] always
    produce the same name. *)

val load :
  clock:Uksim.Clock.t ->
  vfs:Ukvfs.Vfs.t ->
  store:Ukvfs.Blockfs.t ->
  path:string ->
  unit ->
  (model, string) result
(** Boot-time weight load. [path] must resolve through [vfs] to the
    object (the store mounted at the path's directory); the bulk bytes
    then go through the store's streaming read path. Fails when the
    streamed digest does not match the manifest or the content-address
    name (tampered or rotten weights). *)

(** {1 Server} *)

type t

val create_bare :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  ?max_batch:int ->
  ?max_wait_ns:float ->
  ?core:int ->
  model:model ->
  unit ->
  t
(** The admission queue + batch executor without any networking — the
    unit-testable core both servers wrap. Defaults: [max_batch] 8,
    [max_wait_ns] 20 µs. *)

type make =
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  ?max_batch:int ->
  ?max_wait_ns:float ->
  model:model ->
  unit ->
  t

val serve : transport:Serve.transport -> make
(** Serve [model] on [port] (default 8000) over [transport]. Batch
    completions run in engine context, so replies leave through
    non-blocking flushes, one per reply. *)

val create : make
(** [serve ~transport:Socket]. *)

val create_fast : make
(** [serve ~transport:(Netbuf {rtc = true})]. *)

val submit : t -> rid:int -> width:int -> reply:(string -> unit) -> unit
(** Enqueue one request directly (bypassing the network) — the unit-test
    and embedding entry point. [reply] fires when the batch executes. *)

val pump : t -> unit
(** Flush a pending partial batch immediately (drains the admission
    queue without waiting for the engine timer). *)

type stats = {
  requests : int;
  batches : int;
  errors : int;
  max_occupancy : int;  (** largest batch executed *)
  bytes_out : int;
}

val stats : t -> stats
val state_hash : t -> int
(** Order-independent fold over every (id, width, output digest) served —
    equal across transports given the same request set. *)

val the_model : t -> model

val request : rid:int -> width:int -> string
(** Wire format of one request line. *)

val reply_len : int
(** Every reply is exactly this many bytes ({!Load} counts reply
    boundaries by arithmetic, immune to netbuf splits). *)

(** {1 Load generation} *)

val client : ?width:int -> unit -> Load.proto
(** Connection [ci]'s [j]th request has id [(ci lsl 20) lor j] and token
    width [width] (default 16). *)
