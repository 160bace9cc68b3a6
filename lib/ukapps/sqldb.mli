(** Embedded SQL database — the SQLite stand-in (Figs 16, 17).

    Rows are serialized into a {!Btree} keyed by rowid; all row and node
    storage flows through the configured ukalloc backend, and statements
    can be journaled through vfscore, so both the allocator axis (Fig 16)
    and the libc/syscall-dispatch axis (Fig 17) are exercised by the same
    engine. Outside an explicit transaction every statement commits (and
    fsyncs the journal) individually, as SQLite does. *)

type t

type result_set =
  | Done  (** DDL / transaction control *)
  | Affected of int  (** INSERT / DELETE *)
  | Count of int  (** SELECT COUNT(...) *)
  | Rows of { columns : string list; rows : Sql.literal list list }

val create :
  clock:Uksim.Clock.t ->
  alloc:Ukalloc.Alloc.t ->
  ?journal:Ukvfs.Vfs.t * string ->
  ?per_stmt_overhead:int ->
  unit ->
  t
(** [journal] = (vfs, path) for write-ahead journaling. [per_stmt_overhead]
    adds cycles per statement — how the Fig 17 harness models the
    newlib-vs-musl and automatic-porting deltas. *)

val exec : t -> string -> (result_set, string) result
