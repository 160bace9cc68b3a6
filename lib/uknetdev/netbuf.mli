(** uk_netbuf (paper §3.1): the packet-buffer currency of the datapath.

    A netbuf is a lightweight descriptor — an [(off, len)] window — onto a
    refcounted storage cell with reserved headroom. Descriptors are what
    the layers exchange: a driver hands one to the stack, the stack parses
    headers in place with {!push}/{!pull} and hands the payload window to
    the application, the application writes its reply into a fresh pool
    buffer and hands that back down TX. Ownership moves with the
    descriptor; nothing in that chain copies frame bytes.

    Copies still exist, but only behind four explicit calls —
    {!copy_out}, {!copy_in}, {!copy}, {!of_bytes} — each of which bumps
    the sticky ["uknetdev.copies"] uktrace source. A measurement window
    can therefore assert "the hot path copied nothing" by diffing that
    source. *)

type t

(** {1 Construction} *)

val alloc : ?headroom:int -> size:int -> unit -> t
(** Fresh heap-backed buffer with [size] bytes of payload capacity after
    [headroom] (default 64 — ethernet+IP+TCP fits). *)

val of_bytes : ?headroom:int -> bytes -> t
(** Buffer holding a copy of the given payload ({e counted} — this is a
    materialization, used at bytes-era edges). *)

(** {1 The window} *)

val data : t -> bytes
(** Underlying storage; the payload occupies
    [offset t .. offset t + len t - 1]. *)

val offset : t -> int
val len : t -> int
val capacity : t -> int

val set_len : t -> int -> unit

val push : t -> int -> unit
(** [push b n] extends the payload [n] bytes into the headroom (prepending
    a header); raises [Invalid_argument] without room. *)

val pull : t -> int -> unit
(** [pull b n] strips [n] leading payload bytes (consuming a header). *)

val reset : t -> unit
(** Rewind to empty-at-full-headroom. *)

val view : t -> bytes * int * int
(** Zero-copy [(storage, off, len)] window onto the payload. The reader
    must not retain it past the descriptor's ownership. *)

(** {1 Counted copies}

    The only ways to materialize payload bytes; each increments the
    ["uknetdev.copies"] source (empty payloads are free). *)

val copy_out : t -> bytes

val copy_in : t -> bytes -> unit
(** Replace the payload with the given bytes (sets length). *)

val copy_into : t -> t -> unit
(** [copy_into src dst] copies [src]'s payload window into [dst] (one
    counted copy) — the legacy driver RX path. *)

val copy : ?headroom:int -> t -> t
(** Full duplicate onto a fresh heap cell (retransmit/corruption paths
    that must not alias shared storage). *)

(** {1 Ownership} *)

val share : t -> t
(** Clone the descriptor onto the same storage (refcount +1) — an
    indirect mbuf. Both descriptors move independently; the storage
    returns to its pool when the last one is recycled. *)

val recycle : t -> unit
(** Drop this descriptor. When it was the storage's last reference, a
    pooled cell is pushed onto its home pool's remote-free list (drained,
    and paid for, by the pool owner's next {!Pool.take}); heap cells fall
    to the GC. Safe from any core. *)

val live : t -> bool
(** False once the descriptor was recycled or its storage was reissued
    (generation mismatch). The window operations, {!view}, the copies and
    {!share} raise [Invalid_argument "Netbuf: use after give"] on such a
    descriptor, and a second {!recycle} of it raises [Invalid_argument
    "Netbuf: double give"]. *)

(** {1 Copy accounting} *)

val total_copies : unit -> int
val copied_bytes_total : unit -> int
(** Readings of the ["uknetdev.copies"] source: the sum of its
    [copy_out], [copy_in] and [copy] counts, and its [bytes]. *)

module Pool : sig
  type netbuf := t
  type t

  val create :
    clock:Uksim.Clock.t ->
    ?alloc:Ukalloc.Alloc.t ->
    ?on_op:(Uksim.Clock.t -> unit) ->
    ?headroom:int ->
    count:int ->
    size:int ->
    unit ->
    t
  (** A pool of [count] cells of [size] payload bytes. A cell's storage
      is made by the first {!take} that finds the remote-free list
      drained and the free stack empty, so the pool holds as many cells
      as were ever out at once. [alloc] backs each of the [count] cells
      with a real allocation from that ukalloc backend, all made here
      (the per-core magazine integration). [on_op] runs before every take
      with the charging clock — the shared-pool ablation passes a
      spinlock acquire/release here. Cells come back only through
      {!recycle}. *)

  val take : ?clock:Uksim.Clock.t -> t -> netbuf option
  (** O(1); [None] when all [count] cells are out. Charges [clock]
      (default: the pool's own) and drains the remote-free list first;
      the most recently returned cell is reused first. *)

  val available : t -> int
  (** Cells not out: on the free stack, on the remote-free list, or not
      made yet. *)

  val pending_returns : t -> int
  val total : t -> int
end
