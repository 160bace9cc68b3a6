(** RESP2 — the Redis serialization protocol (wire format used by the
    Redis-like server and redis-benchmark-like client of Figs 12 and 18).
    Only encoding lives here: the server frames commands in place with
    {!Resp_store.frame}, and the client counts replies without decoding
    them. *)

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
