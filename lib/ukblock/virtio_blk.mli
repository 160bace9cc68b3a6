(** virtio-blk device for the ukblock API.

    A guest-side descriptor queue over a host-side backing store (an
    in-memory disk image standing in for the host block layer). The
    image is sparse: it is allocated as it is written, one 64-sector
    chunk at a time, and a sector never written reads as zeros. Requests
    complete asynchronously on the event engine after the host-path
    latency; a completion handler (virtqueue interrupt) fires on
    idle-to-busy completion transitions, with the same storm-avoidance
    contract as uknetdev.

    [Ramdisk] is the degenerate device: synchronous, memory-speed — what
    the paper's RamFS guests effectively use. *)

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  ?capacity_sectors:int ->
  ?queue_depth:int ->
  ?host_latency_ns:float ->
  unit ->
  Blockdev.t
(** Sectors are 512 bytes. Defaults: 131072 sectors (64 MiB of
    capacity, allocated as written), queue depth 128, 20 µs host path
    (virtio exit + host page-cache hit). *)

val create_ramdisk :
  clock:Uksim.Clock.t ->
  ?capacity_sectors:int ->
  unit ->
  Blockdev.t
(** Synchronous in-guest RAM disk (submit completes instantly). Same
    sector size (512 bytes), default capacity and sparse medium as
    {!create}. *)
