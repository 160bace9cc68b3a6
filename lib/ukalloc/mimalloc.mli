(** mimalloc-style allocator (Leijen et al.; paper §5.5).

    Free-list sharding: memory is carved into 64 KiB pages, each dedicated
    to one size class and carrying its own free list split in two shards
    ([free] for allocation, [local_free] collecting frees). The hot path is
    a single list pop; when [free] runs dry the shards are swapped; when a
    page is exhausted a fresh page is carved from the segment area. This
    gives the flat, load-insensitive profile that wins the paper's
    high-load SQLite and Redis runs (Figs 16, 18).

    The paper notes mimalloc has a pthread dependency and needs a second
    boot-time allocator to start its worker; we charge that extra
    initialization here, which is why it boots slower than tlsf/tinyalloc
    in Fig 14. *)

val create : clock:Uksim.Clock.t -> base:int -> len:int -> Alloc.t
