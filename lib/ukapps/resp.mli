(** RESP2 — the Redis serialization protocol (wire format used by the
    Redis-like server and redis-benchmark-like client of Figs 12 and 18). *)

type value =
  | Simple of string  (** +OK\r\n *)
  | Error of string  (** -ERR ...\r\n *)
  | Integer of int  (** :42\r\n *)
  | Bulk of string  (** $3\r\nfoo\r\n *)
  | Null  (** $-1\r\n *)
  | Array of value list  (** *2\r\n... *)

val encode : value -> string

val encode_command : string list -> string
(** A client command as an array of bulk strings. *)

module Parser : sig
  type t
  (** Incremental parser over a byte stream (TCP gives no framing). *)

  val create : unit -> t
  val feed : t -> bytes -> unit

  val next : t -> (value option, string) result
  (** [Ok None] = need more input; [Error _] = protocol violation. *)
end
