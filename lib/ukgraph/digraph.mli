(** Directed graphs with string-named nodes and integer-weighted edges.

    Used for micro-library dependency graphs (Figs 2, 3), the Linux kernel
    component graph (Fig 1), and link-time symbol reachability. *)

type t

val create : unit -> t

val add_node : t -> string -> unit
(** Idempotent. *)

val add_edge : ?weight:int -> t -> string -> string -> unit
(** [add_edge g a b] adds (or reinforces, summing weights; default weight 1)
    an edge a -> b. Creates missing nodes. *)

val mem_edge : t -> string -> string -> bool
val weight : t -> string -> string -> int
(** Edge weight, 0 if absent. *)

val nodes : t -> string list
(** Sorted. *)

val succs : t -> string -> string list
(** Sorted successors; [] for unknown nodes. *)

val preds : t -> string -> string list

val n_nodes : t -> int
val n_edges : t -> int
(** Distinct directed edges. *)

val total_weight : t -> int
(** Sum of all edge weights (total dependency count in Fig 1 terms). *)

val out_degree : t -> string -> int
val in_degree : t -> string -> int

val reachable_set : t -> string list -> string list
(** [reachable_set g roots] is the sorted list of nodes reachable from
    [roots] (roots included when present in the graph). *)

val topo_sort : t -> (string list, string list) result
(** [Ok order] with dependencies-first order, or [Error cycle] exhibiting a
    cycle. *)

val has_cycle : t -> bool

val transpose : t -> t

val subgraph : t -> (string -> bool) -> t
(** Induced subgraph on nodes satisfying the predicate. *)

val to_dot : ?name:string -> t -> string
(** Graphviz rendering with edge-weight labels. *)
