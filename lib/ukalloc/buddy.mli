(** Binary buddy allocator (the Mini-OS allocator of the paper, §5.5).

    Classic power-of-two buddy system: blocks are split down to the request
    order and coalesced with their buddy on free. Initialization walks the
    whole region page by page to build the free map (as Mini-OS's [mm.c]
    does), which is why it is the slowest allocator to boot in Fig 14 while
    performing competitively at run time. *)

val create : clock:Uksim.Clock.t -> base:int -> len:int -> Alloc.t
(** [len] must be a power of two and at least 32 (the smallest block); [base] must be
    aligned to [len]. Raises [Invalid_argument] otherwise. *)
