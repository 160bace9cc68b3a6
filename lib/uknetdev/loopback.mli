(** Zero-cost paired devices: two uknetdev instances whose tx rings feed
    each other's rx rings directly (one event-engine hop, no virtio or host
    path). Used to connect two in-simulation network stacks — e.g. a wrk
    client against an nginx unikernel — and by unit tests.

    Multi-queue: with [n_queues > 1] (or explicit per-queue clock/engine
    arrays) each side exposes that many rx/tx queues, and delivery steers
    frames by symmetric {!Rss} hashing of the 5-tuple — both directions of
    a flow land on the same peer queue index. Frames without a 5-tuple
    (ARP, non-IPv4) are mirrored to {e all} peer queues so per-queue stacks
    can resolve addresses. When a queue is given its own clock (the uksmp
    per-core setup), tx charges the sending queue's clock and delivery is
    scheduled on the target queue's engine no earlier than that queue's
    local present — cross-core sends never rewind a receiver. *)

val create_pair :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  ?latency_ns:float ->
  ?ring_size:int ->
  ?n_queues:int ->
  ?queues_a:(Uksim.Clock.t * Uksim.Engine.t) array ->
  ?queues_b:(Uksim.Clock.t * Uksim.Engine.t) array ->
  unit ->
  Netdev.t * Netdev.t
(** Default latency 2 µs (VM-to-VM on one host), ring 512, one queue per
    side on the shared [clock]/[engine]. [queues_a]/[queues_b] give a side
    one queue per array entry, each on its own clock/engine (overriding
    [n_queues] for that side). The sides are named ["loopback-a"] and
    ["loopback-b"] and register their sources in that order. *)
