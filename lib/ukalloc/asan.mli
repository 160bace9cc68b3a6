(** Address-sanitizer wrapper for any ukalloc backend (paper §7: Unikraft
    "already supports ... Address Sanitisation").

    Wraps an allocator with:
    - {e redzones}: each allocation is padded left and right; touching a
      redzone reports a heap-buffer-overflow;
    - {e quarantine}: freed blocks are poisoned and parked for a number of
      subsequent frees before real release, so use-after-free and
      double-free are caught instead of silently recycling memory.

    Every check charges the shadow-memory lookup cost, so sanitized builds
    are measurably slower — the classic debug/performance trade-off. *)

type violation =
  | Heap_buffer_overflow of { addr : int; block : int }
  | Use_after_free of { addr : int; block : int }
  | Double_free of { addr : int }
  | Wild_access of { addr : int }  (** not in any live allocation *)

exception Asan of violation

type t

val wrap : clock:Uksim.Clock.t -> ?quarantine:int -> Alloc.t -> t
(** Redzones are 32 bytes on each side; the quarantine defaults to 64
    entries. *)

val alloc : t -> Alloc.t
(** The sanitized allocator (same API; [free] of a quarantined address
    raises [Double_free]). *)

val check_read : t -> addr:int -> len:int -> unit
val check_write : t -> addr:int -> len:int -> unit
(** Validate an access; raise {!Asan} on redzone / freed / wild hits. *)

val checks_performed : t -> int
