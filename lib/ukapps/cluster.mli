(** Multicore serving harness over {!Uksmp.Smp}: [n] server cores and [n]
    client cores joined by a multi-queue loopback link with symmetric RSS.

    Each side models one machine with a multi-queue NIC: queue [i] of the
    server side belongs to core [i], queue [j] of the client side to core
    [n + j]; all queues of a side share that side's MAC and IP, and one
    per-core {!Uknetstack.Stack} owns each queue. Servers listen on every
    core (SO_REUSEPORT-style sharding); load runners pick client source
    ports whose RSS hash steers each flow to the matching queue index, so
    core [j] drives server core [j] and flows never cross cores. Runs are
    deterministic: same seed, same core count — same {!trace_hash}. *)

type t

type alloc_mode =
  | Arena  (** per-core magazines over the shared backend ({!Ukalloc.Percore}) *)
  | Shared_lock  (** every allocation takes one global spinlock — the ablation baseline *)

type fastpath = {
  rx_batch : int;  (** descriptors per poll; 1 ablates RX batching *)
  rx_copy : bool;  (** true ablates zero-copy RX (copy into fresh buffers) *)
  tx_coalesce : bool;  (** one TX ring burst per poll window *)
  shared_pool : bool;
      (** one spinlocked netbuf pool shared by all server cores — ablates
          the per-core pools *)
}
(** Datapath ingredient knobs for the fast-path ablation matrix. *)

val fastpath_default : fastpath
(** All ingredients on: [{rx_batch = 64; rx_copy = false;
    tx_coalesce = true; shared_pool = false}]. *)

val create : ?seed:int -> ?alloc_mode:alloc_mode -> ?fastpath:fastpath -> n:int -> unit -> t
(** [2 * n] cores, stacks brought up and started (per-core bring-up runs
    in parallel virtual time). Default [alloc_mode] is [Arena]. The
    [fastpath] knobs apply to every stack on both sides; the default is
    {!fastpath_default} without TX coalescing. *)

val smp : t -> Uksmp.Smp.t
val server_stack : t -> int -> Uknetstack.Stack.t
val client_stack : t -> int -> Uknetstack.Stack.t
val alloc_view : t -> int -> Ukalloc.Alloc.t
val alloc_spin : t -> Uklock.Lock.Spin.t
(** The allocator's backend lock (arena refill lock, or the global lock in
    [Shared_lock] mode) — its source quantifies allocator contention. *)

val trace_hash : t -> int
val elapsed_ns : t -> float

(** {1 Serving}

    Every app is added and driven over a {!Serve.transport}: [Socket]
    pairs the socket/copy servers with the socket clients, [Netbuf _]
    pairs the zero-copy servers with the netbuf clients ([Netbuf
    {rtc = false}] ablates run-to-completion on the server side). *)

val run_load :
  t ->
  transport:Serve.transport ->
  port:int ->
  connections_per_core:int ->
  requests_per_core:int ->
  ?pipeline:int ->
  Load.proto ->
  Load.result
(** Spawn one {!Load} client group per client core, each steered at its
    server core, and drive the whole SMP domain to completion. Weak
    scaling: the per-core load is fixed, so ideal scaling keeps elapsed
    flat while total throughput grows with [n]. [pipeline] defaults to
    1. *)

val add_httpd :
  t -> transport:Serve.transport -> ?port:int -> Httpd.content -> Httpd.t array
(** One {!Httpd.serve} worker per server core (port defaults to 80). *)

val add_resp :
  t -> transport:Serve.transport -> ?port:int -> ?populate:int -> unit -> Resp_store.t array
(** One worker per server core sharing a single database (port defaults to
    6379); [populate] pre-loads that many keys in {!Resp_store.client}'s
    key pattern so GET workloads measure hits. *)

val add_infer :
  t ->
  transport:Serve.transport ->
  ?port:int ->
  ?size_mb:int ->
  ?max_batch:int ->
  ?max_wait_ns:float ->
  unit ->
  Infer.t array
(** One {!Infer.serve} worker per server core (port defaults to 8000),
    each with its own virtio-blk weight store, published seeded model of
    [size_mb] (default 4) MiB, vfs mount at [/models] and boot-time weight
    load — the replicated-image deployment, no cross-core sharing. *)

val add_store :
  t ->
  transport:Serve.transport ->
  ?port:int ->
  ?keys:int ->
  ?journal_sectors:int ->
  unit ->
  Store.t array
(** One {!Store.serve} worker per server core (port defaults to 7000),
    each with its own virtio-blk device formatted as a crash-consistent
    ukstore, pre-populated with [keys] (default 256) committed entries —
    the replicated stateful-image deployment. *)
