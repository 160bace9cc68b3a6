(** uklibparam: kernel command-line parameters.

    Unikraft libraries export tunables addressed as [lib.param]; the boot
    command line assigns them ("netdev.ip=172.44.0.2 vfs.rootfs=9pfs --
    app args"). Everything after ["--"] is left for the application's
    argv. Integer parameters accept K/M/G size suffixes. *)

type value = Int of int | Bool of bool | String of string

type t

val create : unit -> t

val register : t -> lib:string -> name:string -> ?doc:string -> value -> unit
(** Declare a parameter with its default. Raises [Invalid_argument] on
    duplicates. *)

val get_int : t -> lib:string -> name:string -> int option
val get_bool : t -> lib:string -> name:string -> bool option
val get_string : t -> lib:string -> name:string -> string option
(** Current value (default until {!parse} assigns it); [None] for an
    unknown parameter or one of another type. *)

val parse : t -> string -> (string list, string) result
(** Apply a command line; returns the application argv remainder.
    Errors on unknown parameters, missing '=', or type mismatches
    (booleans accept on/off/true/false/1/0). *)

val usage : t -> string
(** Help text listing every registered parameter. *)
