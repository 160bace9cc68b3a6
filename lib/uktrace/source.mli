(** The common stats interface every subsystem registers behind.

    A source is a named, resettable window onto one component's counters:
    a [snapshot] closure producing metric samples, plus a [reset] closure
    zeroing the resettable part. Most sources are {!Registry.group}s,
    whose samples are metric cells the group owns; {!make} is for sources
    that compute a sample at snapshot time. {!Registry} collects sources
    and serves uniform snapshot/diff/to_json/reset over all of them, and
    {!count}/{!level} read one sample. *)

type sample = string * Metric.value

type t = {
  subsystem : string;  (** owning library, e.g. ["uklock"] *)
  name : string;  (** instance name within the subsystem *)
  snapshot : unit -> sample list;
  reset : unit -> unit;
}

val make :
  subsystem:string -> name:string -> ?reset:(unit -> unit) -> (unit -> sample list) -> t
(** [reset] defaults to a no-op (for sources whose readings are pure
    gauges). *)

val id : t -> string
(** ["subsystem.name"]. *)

val count : t -> string -> int
(** The current reading of the [Count] sample [name]. Raises
    [Invalid_argument] naming the source and the sample when [t] has no
    such sample or it is not a count. *)

val level : t -> string -> float
(** As {!count}, for a [Level] sample. *)
