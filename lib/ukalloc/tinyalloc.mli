(** tinyalloc (thi.ng; paper §5.5) — a small first-fit allocator.

    Blocks live on three lists (fresh / used / free). Allocation walks the
    free list first-fit and otherwise carves a fresh block from the heap
    top; free moves the block to the address-ordered free list and then
    compacts (merges address-adjacent free blocks). The list walks make it
    very fast for small live sets and progressively slower under churn —
    the behaviour behind the paper's Fig 16 crossover at ~1000 queries. *)

val create : clock:Uksim.Clock.t -> base:int -> len:int -> Alloc.t
(** Block descriptors are capped at 2^20, as in the C original (the
    paper's port raises the C default of 256 to run SQLite's 60k-insert
    workload). *)
