(** TLSF — Two-Level Segregated Fits (Masmano et al., ECRTS'04; paper §5.5).

    O(1) malloc and free with bounded fragmentation: a first-level bitmap
    indexes power-of-two size ranges, a second-level bitmap subdivides each
    range into 16 classes; free blocks live on doubly-linked segregated
    lists and are coalesced with their physical neighbours on free.
    Initialization is O(1) — one free block spanning the region — making it
    one of the fastest allocators to boot in the paper's Fig 14 while
    keeping deterministic run-time behaviour. *)

val create : clock:Uksim.Clock.t -> base:int -> len:int -> Alloc.t
(** Raises [Invalid_argument] if [len] is too small for one block. *)
