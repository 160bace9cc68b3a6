(** A registry of Kconfig options (the menu definition). *)

type t

val create : unit -> t

val add : t -> Kopt.t -> unit
(** Raises [Invalid_argument] on duplicate option names. *)

val add_all : t -> Kopt.t list -> unit
val find : t -> string -> Kopt.t option
val options : t -> Kopt.t list
(** In declaration order. *)

val menu_tree : t -> (string list * Kopt.t list) list
(** Options grouped by menu path, paths sorted. *)

val check_closed : t -> (unit, string list) result
(** Verify every variable referenced in a [depends] expression and every
    [selects] target is itself a declared boolean option; [Error missing]
    otherwise. *)
