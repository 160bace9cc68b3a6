(** Live migration of one shard between hosts: iterative pre-copy over
    the inter-host link, stop-and-copy behind front-door draining, and
    {e abort-and-restart} when the destination dies or the link
    partitions mid-copy.

    Each round copies the previous round's dirty footprint, charged as
    wire time ({!Netmodel}) plus the source's memcpy
    ({!Uksim.Cost.memcpy}); the guest keeps serving, dirtying
    [dirty_bps] bytes per second of copy. When the residue fits in
    64 KiB (or after 8 pre-copy rounds) the shard drains at the front
    door, pauses for the final copy, and commits — or aborts if the
    destination crashed or either direction of the link is cut at
    handover. On abort, draining is always undone first, so the request
    stream never observes a lost response; the owner restarts toward a
    new destination. *)

type reason = Dst_down | Src_down | Partitioned

val start :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  net:Netmodel.t ->
  src:int ->
  dst:int ->
  src_up:(unit -> bool) ->
  dst_up:(unit -> bool) ->
  footprint_bytes:int ->
  dirty_bps:(unit -> float) ->
  on_drain:(now_ns:float -> bool -> unit) ->
  on_commit:(now_ns:float -> pause_ns:float -> unit) ->
  on_abort:(now_ns:float -> reason -> unit) ->
  at_ns:float ->
  unit
(** Begins the first pre-copy round at [at_ns]. Exactly one of
    [on_commit] / [on_abort] eventually fires; [on_drain true] …
    [on_drain false] brackets the blackout (the [false] edge also fires
    on any abort that began draining). [pause_ns] is the stop-and-copy
    blackout. *)
