(** Batched zero-copy TX writer over the netbuf ownership API.

    The fast-path replacement for [Buffer] + {!Uknetstack.Stack.Tcp_socket.send}:
    {!add} writes generated bytes directly into pool netbufs (one
    materialization, charged as cycles, never a counted payload copy) and
    hands MSS-full buffers to {!Uknetstack.Stack.Tcp_socket.send_nb};
    {!flush} sends the partial tail. One writer per reply batch — all
    replies to one received segment coalesce into minimal TX segments. *)

type t

val writer :
  clock:Uksim.Clock.t ->
  stack:Uknetstack.Stack.t ->
  flow:Uknetstack.Stack.Tcp_socket.flow ->
  t

val add : t -> string -> unit
val flush : t -> unit
