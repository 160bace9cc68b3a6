(** A resolved configuration: option assignments validated against a schema,
    with [select] propagation and [depends] enforcement. *)

type t

type error =
  | Unknown_option of string
  | Type_mismatch of { option : string; value : Kopt.value }
  | Select_conflict of { selected : string; by : string }
      (** an explicit [n] assignment clashes with a [select] *)
  | Unmet_dependency of { option : string; depends : Expr.t }

val error_to_string : error -> string

val resolve : Schema.t -> (string * Kopt.value) list -> (t, error list) result
(** Build a configuration from explicit assignments. Unassigned options take
    their defaults. Boolean options that end up enabled force their
    [selects] on, transitively; explicit [Bool false] assignments that a
    select overrides are reported as {!Select_conflict}. Every enabled
    boolean option and every explicitly assigned option must have its
    [depends] satisfied (options whose dependencies fail fall back to
    disabled when defaulted, error when explicit). *)

val get_bool : t -> string -> bool
val get_int : t -> string -> int
val get_choice : t -> string -> string
(** Getters raise [Invalid_argument] on unknown names or type mismatch. *)

val to_dotconfig : t -> string
(** Render like a .config file (CONFIG_X=y / # CONFIG_X is not set). *)
