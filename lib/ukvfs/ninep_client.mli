(** Guest-side 9pfs: an {!Fs.t} provider backed by 9P RPCs over a
    virtio-9p transport (paper §5.2, Figs 20 and text2).

    Every operation is one or more synchronous RPCs; reads and writes are
    chunked to the server's iounit, so a 32 KB read costs four round trips
    — the source of Fig 20's block-size scaling. *)

module Transport : sig
  type t

  val virtio_9p : clock:Uksim.Clock.t -> server:Ninep_server.t -> t
  (** Guest-visible RPC cost: request serialization, virtqueue kick (VM
      exit), host 9p processing latency, response copy and completion
      interrupt — all charged to [clock] since the caller blocks. *)

  val rpcs_sent : t -> int
end

val create : transport:Transport.t -> (Fs.t, string) result
(** Performs version negotiation and attach; the result is mountable under
    {!Vfs}. *)
