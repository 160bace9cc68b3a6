(** SQL subset understood by the embedded database (the SQLite stand-in
    of Figs 16 and 17): CREATE TABLE, INSERT (multi-row), SELECT with
    column projection / COUNT(...) and a simple WHERE, DELETE, BEGIN and
    COMMIT. *)

type ty = Tint | Ttext

type literal = Lint of int | Ltext of string

type comparison = Eq | Ne | Lt | Gt | Le | Ge

type where = { wcol : string; wop : comparison; wval : literal }

type select_cols = All | Count | Cols of string list

type stmt =
  | Create_table of { table : string; columns : (string * ty) list }
  | Insert of { table : string; rows : literal list list }
  | Select of { cols : select_cols; table : string; where : where option }
  | Delete of { table : string; where : where option }
  | Begin
  | Commit

val parse : string -> (stmt, string) result
(** One statement, optional trailing ';'. Keywords are case-insensitive;
    text literals are single-quoted with '' escaping. *)

val compare_literal : literal -> literal -> int
