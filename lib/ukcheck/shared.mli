(** Declared-shared state: the cell wrapper the {!Lockset} detector
    watches.

    Wrap any cross-thread mutable value in a cell and route reads and
    writes through it; when a detector is attached (see
    {!Lockset.attach}) every access feeds the lockset/happens-before
    state machine, and when none is attached the cell is a plain ref with
    no overhead beyond one option check. Create cells {e after}
    {!Lockset.attach} (fixture-setup time) for them to be tracked. *)

type 'a t

val cell : ?name:string -> 'a -> 'a t
(** [cell v] declares shared state with initial value [v]. [name]
    (default ["cell"]) labels race reports. *)

val read : 'a t -> 'a
(** Read the value, recording the access under the cell's name. *)

val write : 'a t -> 'a -> unit

val update : 'a t -> ('a -> 'a) -> unit
(** Read-modify-write: records a read then a write — exactly the pattern
    an unlocked increment races on. *)

val peek : 'a t -> 'a
(** Unchecked read, for assertions outside the monitored workload. *)
