(** The inter-host network: a full mesh of directed links with real
    latency/bandwidth charges and a blockable reachability matrix.

    Every byte that crosses hosts pays [latency + bytes/bandwidth] on
    the directed link it uses; {!block} cuts one direction of one link,
    which is the primitive everything else (symmetric and {e asymmetric}
    partitions) is built from. A transfer over a blocked link returns
    [None] — the bytes vanish, exactly like a partitioned datacenter
    link; detection and recovery are the caller's problem (that is the
    point). Registers a ["ukcluster.net"] source with transfer/byte/drop
    counters. *)

type t

val create : ?latency_ns:float -> ?gbps:float -> nodes:int -> unit -> t
(** A full mesh over [nodes] nodes (hosts plus any front-tier nodes).
    Defaults: 50 us one-way latency, 10 Gbps per directed link;
    self-links are free. *)

val set_link : t -> src:int -> dst:int -> latency_ns:float -> gbps:float -> unit
(** Override one directed link (e.g. a slow WAN hop to an edge host). *)

val block : t -> src:int -> dst:int -> bool
(** Cut the directed link; [true] if it was previously open. *)

val unblock : t -> src:int -> dst:int -> bool
(** Restore the directed link; [true] if it was previously cut. *)

val reachable : t -> src:int -> dst:int -> bool

val transfer_ns : t -> src:int -> dst:int -> bytes:int -> float option
(** Wire time for [bytes] over the directed link, or [None] if the link
    is cut (the transfer is silently lost — counted in [dropped]). *)

val partition : t -> a:int list -> b:int list -> unit
(** Cut every link between the groups, both directions. *)

val partition_asym : t -> from_:int list -> to_:int list -> unit
(** Cut [from_ -> to_] only: [to_] still reaches [from_]. Requests get
    through and responses vanish — the failure mode that distinguishes a
    real failure detector from a timeout. *)

val heal : t -> a:int list -> b:int list -> unit
(** Restore every link between the groups, both directions. *)
