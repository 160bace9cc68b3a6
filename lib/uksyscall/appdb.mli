(** Syscall requirements of the 30 most popular Debian server applications
    (paper §4.1, Figs 5 and 7).

    The paper derives these sets with a static-plus-dynamic (strace-based)
    analysis framework; we encode the resulting per-application syscall
    sets and re-run the published analyses over them: the requirement/
    support heatmap (Fig 5) and the "how close is each app to full
    support" projection under the next-N-most-wanted syscalls (Fig 7). *)

val apps : string list
(** 30 server applications, by Debian popularity. *)

val required : string -> int list
(** Sorted syscall numbers an application needs to run. Raises
    [Invalid_argument] for unknown applications. *)

val unikraft_supported : int list
(** The 146 syscalls implemented at paper time (§4.1). *)

val install_supported : Shim.t -> unit
(** Register a stub handler for every supported syscall on a shim (what
    linking the full posix layer does). *)

(** {1 Fig 5} *)

type heat_cell = { sysno : int; sname : string; needed_by : int; supported : bool }

val heatmap : unit -> heat_cell list
(** One cell per syscall 0..313. *)

(** {1 Fig 7} *)

type coverage = {
  app : string;
  n_required : int;
  now : float;  (** fraction of required syscalls currently supported *)
  plus5 : float;  (** after implementing the 5 most-wanted missing ones *)
  plus10 : float;
  plus15 : float;
}

val coverage : unit -> coverage list
(** Per app, sorted by name. The "next N" sets are chosen greedily by how
    many applications want each missing syscall (the paper's method). *)

val most_wanted_missing : int -> int list
(** The N unsupported syscalls wanted by the most applications. *)

(** {1 Against a live shim}

    The analyses above use the static paper-time support list. With
    ukcompat populating a shim with executable handlers, the same
    analyses can be recomputed against what is actually registered. *)

val heatmap_of_shim : Shim.t -> heat_cell list
(** {!heatmap}, against the shim's live {!Shim.supported_set}. *)

val coverage_of_shim : Shim.t -> coverage list
