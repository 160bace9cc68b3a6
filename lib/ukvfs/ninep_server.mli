(** Host-side 9P file server (QEMU's virtio-9p device model): serves the
    {!Ninep} protocol over any {!Fs.t} (typically a {!Ramfs} standing in
    for the host share directory). Host work does not consume guest cycles
    — the transport accounts for guest-visible latency. *)

type t

val create : backing:Fs.t -> t

val handle : t -> bytes -> bytes
(** Process one T-message, return the R-message. Malformed input or
    protocol errors yield [Rerror]. *)

val iounit : int
(** Maximum payload per read/write RPC — larger I/O takes multiple round
    trips (visible in Fig 20's block-size scaling). *)
