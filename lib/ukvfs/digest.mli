(** Shared content-addressing primitives.

    One digest scheme for both block-layer stores: {!Blockfs} names
    read-only objects by the page-sampling {!fold_pages} digest, and
    [Ukstore] builds its merkle hashes from the same FNV-1a/{!mix}
    primitives with the same XOR-fold order-independence property. *)

val page : int
(** Sampling granularity: one probe per 4 KiB page. *)

val sample : int
(** Bytes hashed per page probe (64). *)

val fnv : bytes -> int -> int -> int
(** [fnv buf off len] is {!fnv_string} of [buf[off, off+len)] (the seed
    when [len <= 0]). Raises [Invalid_argument] when [len > 0] and that
    range is not inside [buf]. *)

val fnv_string : string -> int
(** FNV-1a over the whole string, masked to [max_int]. *)

val mix : int -> int -> int
(** Avalanche mix of two words (splitmix-style finalizer); the
    combinator under every fold below. *)

val fold_pages : int -> bytes -> pos:int -> off:int -> len:int -> int
(** [fold_pages acc buf ~pos ~off ~len] XOR-folds per-page samples of the
    object bytes [off, off+len) held at [buf[pos..)] into [acc]. [off]
    must be page-aligned. Order-independent across chunks. *)

val string_hash : string -> int
(** Full-content hash for small objects (every byte contributes). *)

val bytes_hash : bytes -> pos:int -> len:int -> int
(** [bytes_hash buf ~pos ~len] is {!string_hash} of [buf[pos, pos+len)]. *)
