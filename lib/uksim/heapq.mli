(** Mutable binary min-heap keyed by integer priority, with cancellation.

    Entries pop in (key, insertion order). A cancelled entry is only
    marked; [pop] and [peek] skip marked entries, and the heap is rebuilt
    without them once they outnumber the live ones, so [cancel] is
    amortized O(1) and [push] stays O(log n). *)

type 'a t

type 'a entry
(** A pushed value, as {!cancel} takes it back. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Number of live (pushed, not yet popped or cancelled) entries. *)

val push : 'a t -> int -> 'a -> 'a entry
(** [push h key v] inserts [v] with priority [key] (smaller pops first).
    Insertion order breaks ties (FIFO among equal keys). *)

val cancel : 'a t -> 'a entry -> unit
(** [cancel h e] removes [e] from [h]: it will never pop. Cancelling an
    entry that already popped or was already cancelled does nothing. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum live entry. *)

val peek : 'a t -> (int * 'a) option
