(** Calibrated primitive costs, in cycles.

    Anchored to the paper's own measurements on an Intel i7-9700K @ 3.6 GHz
    (Table 1 and §5/§6 of the Unikraft paper). Everything else in the
    simulator composes these primitives, so figure *shapes* follow from the
    same mechanisms as on the testbed. *)

val function_call : int
(** A plain (shim) function call: 4 cycles / 1.11 ns (Table 1). *)

val syscall_unikraft : int
(** Unikraft run-time syscall translation: 84 cycles / 23.33 ns (Table 1). *)

val syscall_linux : int
(** Linux syscall with KPTI and other mitigations: 222 cycles (Table 1). *)

val syscall_linux_nomitig : int
(** Linux syscall without mitigations: 154 cycles (Table 1). *)

val vm_exit : int
(** A lightweight VM exit/entry round trip (e.g. virtio kick to vhost). *)

val interrupt_delivery : int
(** Virtual interrupt injection + guest handler entry. *)

val context_switch : int
(** Guest-internal thread context switch (register save/restore). *)

val page_table_entry_write : int
(** Writing and accounting one page-table entry during boot-time
    population. *)

val tlb_miss : int
(** One 4-level page walk. *)

val memcpy : int -> int
(** [memcpy n] is the cycle cost of copying [n] bytes (includes fixed
    call overhead). *)

val checksum : int -> int

val cache_hit : int
(** L1 hit. *)

(** {1 SMP-model costs (consumed by [lib/uksmp])} *)

val ipi : int
(** Cross-core inter-processor interrupt: send, remote vector entry and
    acknowledge. Charged to the receiving core. *)

val alloc_backend_op : int
(** One alloc/free critical section on a shared (lock-protected)
    allocator backend. *)

val arena_refill_per_obj : int
(** Per-object cost of a batched magazine refill from the shared backend
    (amortized list carving; cheaper than {!alloc_backend_op} because one
    lock acquisition covers the whole batch). *)

val arena_fast_path : int
(** Per-core magazine hit: lock-free pop/push. *)
