(** Registry of defined micro-libraries (the build system's lib/ tree). *)

type t

val create : unit -> t
val add : t -> Microlib.t -> unit
(** Raises [Invalid_argument] on duplicates. *)

val add_all : t -> Microlib.t list -> unit
val find_exn : t -> string -> Microlib.t

val closure : t -> string list -> (string list, string) result
(** Transitive dependency closure of the given roots (roots included),
    sorted; [Error missing_lib] if a dependency is not registered. *)

val dep_graph : t -> string list -> Ukgraph.Digraph.t
(** Library-level dependency graph restricted to the given set. *)
