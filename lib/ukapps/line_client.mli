(** Closed-loop load generator for the newline-request protocols with
    fixed-size replies ({!Store}, {!Infer}).

    Each connection sends [pipeline] requests at a time and waits for
    their replies. Replies are counted by byte arithmetic (every reply is
    [reply_len] bytes), so the count is immune to how TCP segments the
    stream; a reply whose status byte is ['E'] counts as an error. *)

type proto = {
  name : string;  (** labels the client threads and failures *)
  reply_len : int;
  requests : int -> int -> string;
      (** [requests ci] is connection [ci]'s request stream: called once
          per connection, it returns the line for each sequence number *)
}

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  errors : int;
}

type agg
(** Shared aggregator for SMP runs — see {!Wrk.agg}. *)

val new_agg : unit -> agg

val spawn :
  transport:Serve.transport ->
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  ?port_for:(int -> int option) ->
  agg:agg ->
  proto ->
  unit
(** Spawn [connections] (default 16) pinned client threads sharing
    [requests] (default 4096); [pipeline] defaults to 1. On
    {!Serve.Socket} requests leave through one blocking send per batch
    and every receive timestamps the replies it completes. On
    {!Serve.Netbuf} requests leave through an {!Nbio} writer and
    replies are counted in place from the rx sink, one wake-up per
    batch. *)

val result_of_agg : agg -> t_start:float -> result

val run :
  transport:Serve.transport ->
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  proto ->
  result
(** {!spawn}, then drive [sched] to completion; call from outside any
    scheduler thread. *)
