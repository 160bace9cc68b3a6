(** x86-64 paging micro-library (paper §6.1, Fig 21).

    Three boot-time strategies, as in the paper:
    - {!Static}: the binary ships a pre-initialized page-table structure;
      boot merely enables paging and loads the page-table base register —
      O(1), the 30 µs / 1 GB case of Fig 21. The mapping covers all of RAM
      identity-mapped and cannot be changed at run time (no [mmap]).
    - {!Dynamic}: the full 4-level structure is populated entry by entry at
      boot, enabling later virtual-address-space changes; boot cost grows
      linearly with RAM.
    - {!Protected32}: 32-bit protected mode with paging disabled — zero
      paging cost, 4 GB address-space limit, no TLB misses.

    The structure built is a real 4-level radix tree (PML4/PDPT/PD/PT with
    512 entries per level over 4 KiB pages); translation walks it and an
    associated direct-mapped TLB model. *)

type mode = Static | Dynamic | Protected32

val page_size : int

type t

val create : clock:Uksim.Clock.t -> mode:mode -> ram_bytes:int -> t
(** Builds the boot-time mapping for [ram_bytes] of identity-mapped RAM,
    charging the strategy's boot cost to [clock]. [ram_bytes] is rounded up
    to a whole page. For [Protected32], [ram_bytes] must be <= 4 GiB. *)

val map_page : t -> vaddr:int -> paddr:int -> unit
(** Map one 4 KiB page. Only valid in [Dynamic] mode (the static structure
    is read-only and protected mode has no paging): raises
    [Invalid_argument] otherwise, or if addresses are not page-aligned. *)

val unmap_page : t -> vaddr:int -> unit

val translate : t -> int -> int option
(** Translate a virtual address, charging TLB-hit or full-walk cost.
    [None] for unmapped addresses. In [Protected32] translation is the
    identity (bounded by RAM). *)

val mapped_pages : t -> int
val table_count : t -> int
(** Page-table pages in the structure (all levels). *)

val table_bytes : t -> int
val tlb_flush : t -> unit
val tlb_hits : t -> int
val tlb_misses : t -> int

val boot_entry_writes : t -> int
(** Page-table entry writes performed during [create] — the quantity that
    grows with RAM in Fig 21's dynamic line. *)
