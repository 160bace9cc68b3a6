(** virtio-net driver for the uknetdev API, with the two KVM datapaths of
    the paper (§6.2, Fig 19):

    - {!Vhost_net}: the default tap-based in-kernel backend. Transmit
      bursts must kick the host (a VM exit) and the host-side per-packet
      path is long (tap + kernel bridge), so it saturates around ~1.2 Mpps
      regardless of guest speed.
    - {!Vhost_user}: DPDK-based backend polling shared rings in host
      userspace — no exits, short per-packet host path (at the cost of a
      dedicated host polling core).

    Host-side work runs "in parallel" on its own core: it is scheduled on
    the event engine and does not consume guest cycles; burst calls run the
    engine up to the current instant so host progress is observed. *)

type backend = Vhost_net | Vhost_user

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  backend:backend ->
  wire:Wire.endpoint ->
  ?ring_size:int ->
  unit ->
  Netdev.t
(** A single-queue device (queue 0; multi-queue RSS is {!Loopback}'s)
    that transmits onto (and receives from) [wire]. [ring_size] defaults
    to 256 descriptors per ring. Frames arriving while the queue is
    unconfigured or its ring is full, or when [rx_alloc] fails, are
    dropped (counted in [rx_dropped]). Registers the device's
    ["uknetdev.virtio-net/vhost-net"] or ["uknetdev.virtio-net/vhost-user"]
    source. *)

val guest_tx_cost : backend -> int
(** Guest cycles per transmitted packet (descriptor setup). *)

val host_pkt_cost : backend -> int
(** Host cycles per packet on the backend path. *)
