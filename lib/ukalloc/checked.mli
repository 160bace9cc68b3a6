(** Invariant-checking wrapper around any allocator.

    Intercepts the {!Alloc.t} operations and asserts, on every call:
    - returned blocks never overlap a live block;
    - returned addresses respect the requested alignment;
    - [free]/[realloc] only touch live addresses.

    Violations raise {!Violation}. Used by the unit and property tests to
    validate every backend under randomized workloads. *)

exception Violation of string

type t

val wrap : Alloc.t -> t
val alloc : t -> Alloc.t
(** The checked view, same interface as the wrapped allocator. *)

val live_count : t -> int
