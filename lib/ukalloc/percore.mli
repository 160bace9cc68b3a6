(** Per-core arena/magazine allocator layer for the SMP model.

    Wraps any {!Alloc.t} backend with per-core, per-size-class magazines
    (stacks of pre-allocated objects). The hot path — pop on malloc, push
    on free — touches only the calling core's state and charges
    {!Uksim.Cost.arena_fast_path} to that core's clock. Magazines refill in
    batches from the shared backend under a {!Uklock.Lock.Spin} whose hold
    time models the backend work
    ([Cost.alloc_backend_op + batch * Cost.arena_refill_per_obj]);
    overflowing magazines flush half back the same way.

    Create the backend on a dummy clock: its internal cost charges then go
    nowhere and the spinlock hold is the single source of modeled backend
    cost, which keeps the arena-vs-shared-lock ablation apples-to-apples.

    Sizes above 4096 bytes bypass the magazines (backend under lock).
    Objects may be freed from any core (the class table is shared); a
    cross-core free caches the object on the {e freeing} core. Backend OOM
    propagates: a refill that obtains zero objects makes malloc return
    [None], so the layer composes with {!Ukfault.Faultalloc} injection. *)

type t

val create :
  clocks:Uksim.Clock.t array ->
  backend:Alloc.t ->
  ?batch:int ->
  ?max_cached:int ->
  unit ->
  t
(** One magazine set per entry of [clocks] (core [i] charges [clocks.(i)]).
    [batch] (default 16) objects move per refill; a magazine holding more
    than [max_cached] (default 64) objects flushes down to half of it.
    Raises [Invalid_argument] if [clocks] is empty, [batch <= 0], or
    [max_cached < batch]. *)

val view : t -> core:int -> Alloc.t
(** The ukalloc-facing allocator for one core. All views share the backend
    and the arena's {!source}: its counts cover the whole arena, not one
    core. *)

val lock : t -> Uklock.Lock.Spin.t
(** The backend spinlock — its {!Uklock.Lock.Spin.source} quantifies
    refill contention. *)

val source : t -> Uktrace.Source.t
(** The arena's ["ukalloc.percore"] source: counts [fast_hits]
    (allocations served from a magazine, no lock), [refills], [flushes],
    [backend_oom] (refills/bypasses the backend could not satisfy),
    [allocs] and [frees]; levels [cached_objs] and [cached_bytes] (what
    the magazines hold now), [bytes_in_use] and [peak_bytes]. *)

val shared_lock_views :
  clocks:Uksim.Clock.t array ->
  backend:Alloc.t ->
  ?hold:int ->
  unit ->
  Alloc.t array * Uklock.Lock.Spin.t
(** Ablation baseline: per-core views that funnel {e every} operation
    through one spinlock around [backend], held for [hold] cycles
    (default {!Uksim.Cost.alloc_backend_op}). The views share [backend]'s
    source. Returns the views (indexed like [clocks]) and the lock for
    contention stats. *)
