(** Automated-porting study (paper §4, Table 2) and the developer
    porting-effort survey (Fig 6).

    Table 2's experiment takes externally-built static archives and links
    them against Unikraft with musl or newlib, with and without the glibc
    compatibility layer. We re-run that as a symbol-resolution check: each
    ported library records the glibc-only symbols it references and the
    symbols newlib does not provide; a link attempt succeeds iff every
    requirement is satisfiable from the selected libc (+ compat layer). *)

type libc = Musl | Newlib

type attempt = { libc : libc; compat_layer : bool }

type entry = {
  lib : string;
  musl_image_mb : float;  (** image size when linked against musl *)
  newlib_image_mb : float;
  glibc_only_syms : string list;  (** referenced symbols only glibc has *)
  newlib_missing_syms : string list;  (** additional gaps when on newlib *)
  glue_loc : int;  (** hand-written glue code, last column of Table 2 *)
}

val entries : entry list
(** The 24 libraries of Table 2. *)

val link_check : entry -> attempt -> (unit, string list) result
(** [Error unresolved] lists the symbols the attempt cannot resolve. *)

type row = {
  name : string;
  musl_mb : float;
  musl_std : bool;
  musl_compat : bool;
  newlib_mb : float;
  newlib_std : bool;
  newlib_compat : bool;
  glue : int;
}

val table2 : unit -> row list
(** Run all four attempts for every entry — the full Table 2. *)

(** {1 Fig 6: developer survey} *)

module Survey : sig
  val by_quarter : unit -> (string * (float * float * float * float)) list
  (** Quarter -> mean (lib, deps, os, build) hours; chronological. *)
end
