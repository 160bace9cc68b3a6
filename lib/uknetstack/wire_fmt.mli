(** Byte-level serialization helpers (big-endian, as on the wire) and the
    Internet checksum. *)

val get_u8 : bytes -> int -> int
val get_u16 : bytes -> int -> int
val get_u32 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val set_u16 : bytes -> int -> int -> unit
val set_u32 : bytes -> int -> int -> unit

val checksum : ?initial:int -> bytes -> off:int -> len:int -> int
(** RFC 1071 one's-complement sum of the [len] bytes at [off], finalized
    (complemented, 16-bit). [initial] is a non-negative un-complemented
    partial sum (e.g. a pseudo-header's words, folded or not). Raises
    [Invalid_argument] unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length b]. *)
