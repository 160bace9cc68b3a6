(** IPv4 fragment reassembly (RFC 791).

    Datagrams are keyed by (source, id, protocol); fragments may arrive in
    any order, with duplicates. A datagram completes when the
    no-more-fragments tail has arrived and the byte range [0, total) is
    covered. Incomplete datagrams expire after a timeout, bounding memory
    against fragment floods. *)

type t

val create : clock:Uksim.Clock.t -> ?timeout_ns:float -> unit -> t
(** The reassembly timeout defaults to 1 s. At most 64 datagrams are in
    flight (RFC 791's resource bound; the oldest is evicted beyond it). *)

type verdict =
  | Complete of bytes  (** fully reassembled payload *)
  | Pending
  | Rejected of string  (** overlap inconsistency / oversized datagram *)

val insert :
  t ->
  src:Addr.Ipv4.t ->
  id:int ->
  proto:int ->
  frag_offset:int ->
  more_frags:bool ->
  bytes ->
  verdict
(** Feed one fragment's payload. *)

val expire : t -> unit
(** Drop datagrams older than the timeout (called by the stack's poll
    path; cheap when nothing is pending). *)

val pending_datagrams : t -> int
val completed : t -> int
val expired : t -> int
