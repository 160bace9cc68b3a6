(** Online statistics and summaries for experiment reporting. *)

type t
(** An accumulating sample set (stores all observations). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

val clear : t -> unit
(** Drop all observations (per-trial reset); capacity is kept. *)

val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]], linear interpolation;
    [nan] when empty. *)

val median : t -> float

(** {1 One-shot helpers} *)

val throughput_per_sec : events:int -> elapsed_ns:float -> float
(** Events per second of virtual time. *)
