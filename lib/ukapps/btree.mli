(** B-tree ordered map used as the SQL engine's storage layer (Figs 16,
    17: the 60k-insert workload runs through here).

    Keys are strings, values are byte strings. Nodes and value payloads
    are "allocated" from a ukalloc backend — every node creation, split
    and value store goes through the configured allocator, which is how
    allocator choice shows up in SQLite-style workloads. *)

type t

val create : clock:Uksim.Clock.t -> alloc:Ukalloc.Alloc.t -> ?order:int -> unit -> t
(** [order] = max children per interior node (default 32, min 4). *)

val insert : t -> key:string -> value:bytes -> (unit, [ `Oom ]) result
(** Replaces existing bindings. *)

val find : t -> string -> bytes option

val delete : t -> string -> bool
(** [true] if the key existed. Uses logical deletion with in-node
    compaction (interior structure is not rebalanced — the access pattern
    of the paper's workloads is insert/lookup dominated). *)

val length : t -> int

val iter : t -> ?min_key:string -> ?max_key:string -> (string -> bytes -> unit) -> unit
(** In key order, inclusive bounds. *)
