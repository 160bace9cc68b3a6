(** Receive-side scaling (paper §5.3's multi-queue NICs, modeled).

    Multi-queue drivers hash each received frame's TCP/UDP 5-tuple to pick
    an rx queue, so a flow always lands on the same queue (and hence the
    same core, when queues are pinned). The hash is {e symmetric}: swapping
    source and destination endpoints gives the same value, so both
    directions of a connection share a queue. *)

val queue_of_tuple :
  n_queues:int -> proto:int -> src_ip:int -> src_port:int -> dst_ip:int -> dst_port:int -> int
(** Deterministic queue index in [0, n_queues). Exposed so clients can
    search for source ports that steer a flow to a chosen queue. *)

val queue_of_frame : bytes -> n_queues:int -> int option
(** {!queue_of_tuple} of an ethernet frame's 5-tuple (IPv4, TCP or UDP
    only); [None] when the frame has no 5-tuple — ARP, non-IP, fragments
    too short for ports (the driver then applies its default-queue
    policy). *)

val queue_of_netbuf : Netbuf.t -> n_queues:int -> int option
