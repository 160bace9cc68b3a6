(** The uklock API (paper §3.3): synchronization primitives whose
    implementation is chosen by configuration.

    Two dimensions select the implementation, as in the paper: threading
    on/off (multi-core is future work there and here). With threading off
    the primitives compile out — operations are free and never block, which
    is sound for a single-threaded run-to-completion unikernel. With
    threading on they block on a {!Uksched.Sched.t}. *)

type mode = Compiled_out | Threaded of Uksched.Sched.t

(** Acquire/release instrumentation seam, consumed by ukcheck's lockset
    race detector. One process-wide hook observes every compiled-in
    {!Mutex} and {!Spin} acquire/release (compiled-out primitives stay
    invisible — they compile out). Each lock carries a process-unique
    [uid]; a {!Spin.acquire} emits its acquire/release pair back-to-back
    (the hold is modelled, no user code runs inside). Observers must not
    block, advance clocks or draw randomness: installing one cannot
    change a run. *)
module Hook : sig
  type op = Acquire | Release

  type event = { op : op; uid : int; lock_name : string }

  val set : (event -> unit) option -> unit
end

module Mutex : sig
  type t

  val create : ?name:string -> mode -> t
  (** [name] (default ["mutex"]) labels the lock in {!Hook} events and race reports. *)


  val lock : t -> unit
  (** Blocks (via the scheduler) while held by another thread. *)

  val try_lock : t -> bool
  val unlock : t -> unit
  (** Ownership is handed to the longest-waiting thread, if any. Unlocking a
      free compiled-in mutex raises [Invalid_argument]. *)

  val locked : t -> bool

  val source : t -> Uktrace.Source.t
  (** The mutex's ["uklock.<name>"] source, registered at {!create}:
      [acquisitions], [contended] (acquisitions that had to block) and
      [wait_cycles] (virtual cycles spent blocked), as {!Spin.source}
      names them. Its [reset] zeroes them. A compiled-out mutex registers
      nothing, and its source reads zero. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Semaphore : sig
  type t

  val create : mode -> int -> t
  (** Initial count must be >= 0. *)

  val wait : t -> unit
  (** Decrement; blocks at zero (compiled-out mode never blocks). *)

  val try_wait : t -> bool
  val signal : t -> unit
  val count : t -> int
end

(** Cross-core spinlock for the SMP model (consumed by [lib/uksmp] and the
    per-core allocator). Unlike {!Mutex} it involves no scheduler: per-core
    clocks all count cycles since boot on one shared time axis, so the lock
    is simulated with a [free_at] watermark — an acquirer whose clock is
    behind the watermark spins (its clock advances to the watermark and the
    wait is recorded as contention), then holds the lock for a caller-stated
    number of cycles. *)
module Spin : sig
  type t

  val create : ?name:string -> unit -> t

  val acquire : t -> Uksim.Clock.t -> hold:int -> unit
  (** Acquire on the core owning [clock], hold for [hold] cycles, release.
      Advances [clock] by the spin wait (if any) plus [hold]. *)

  val source : t -> Uktrace.Source.t
  (** The lock's ["uklock.<name>"] source: [acquisitions], [contended]
      (acquisitions that found the lock held), [wait_cycles] (spent
      spinning) and [held_cycles]. Its [reset] zeroes them. *)
end

module Condvar : sig
  type t

  val create : mode -> t
  val wait : t -> Mutex.t -> unit
  (** Atomically release the mutex and block; re-acquires before
      returning. *)

  val signal : t -> unit
  val broadcast : t -> unit
end
