(** Metric primitives for the uktrace registry.

    Counters are monotonic event counts (diffable across snapshots),
    gauges are instantaneous levels (a diff keeps the newer reading), and
    histograms count observations into log2-sized cycle buckets. All
    updates are O(1) mutations of pre-allocated state, safe on hot
    paths. *)

type value =
  | Count of int  (** monotonic counter reading *)
  | Level of float  (** instantaneous gauge reading *)
  | Buckets of int array  (** log2-histogram bucket counts *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
  val value : t -> value
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val get : t -> float
  val reset : t -> unit
  val value : t -> value
end

(** Log2-bucketed histogram, sized for cycle measurements. Bucket 0
    collects non-positive observations; a value [v >= 1] lands in bucket
    [1 + floor(log2 v)], clamped to the last bucket. *)
module Histogram : sig
  type t

  val n_buckets : int

  val create : unit -> t
  val observe : t -> int -> unit
  val bucket_of : int -> int
  val bucket_count : t -> int -> int

  val bucket_bounds : int -> int * int
  (** [(lo, hi)] inclusive value range of a bucket. *)

  val count : t -> int
  val max : t -> int
  (** Largest observation; [0] when empty. *)

  val reset : t -> unit
  val value : t -> value
end

val value_to_json : value -> string

val diff_value : before:value -> after:value -> value
(** Counters and histogram buckets subtract; gauges keep [after]. *)
