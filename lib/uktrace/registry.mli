(** The global metrics registry: one place every subsystem's stats live.

    Components register a {!Source.t} per instance at creation time;
    harnesses snapshot the whole registry, diff snapshots across
    measurement windows, reset all sources between trials, and export the
    result as JSON. [clear] is the trial boundary: it drops all
    non-sticky (instance) sources so recreated components start from a
    clean slate. *)

val register : ?sticky:bool -> Source.t -> unit
(** Add a source. Duplicate ["subsystem.name"] ids get a ["#n"] suffix.
    [sticky] (default false) sources survive {!clear}. Registrations
    beyond an internal cap are dropped, not an error. *)

val clear : unit -> unit
(** Remove all non-sticky sources (per-trial setup). *)

val reset : unit -> unit
(** Call every registered source's [reset], then renew every entry's
    generation: a {!diff} window that spans a reset keeps the post-reset
    readings rather than subtracting across the zeroing. *)

val sources : unit -> Source.t list
(** Registration order. *)

(** {1 Metric groups}

    The usual way to publish counters: a group is a registered source
    whose samples are metrics the group owns, in creation order, and
    whose [reset] zeroes them all. Create the group where the component
    is created, then its metrics with [let]-sequencing (record fields
    evaluate right to left, which would reverse the sample order). The
    source sees only the metric cells, never the component. A sample
    computed at snapshot time needs {!Source.make} instead. *)

type group

val group : ?sticky:bool -> subsystem:string -> string -> group
(** Register a new, empty ["subsystem.name"] source, as {!register}
    does. *)

val counter : group -> string -> Metric.Counter.t
val gauge : group -> string -> Metric.Gauge.t
val histogram : group -> string -> Metric.Histogram.t
(** Add a metric as the group's last sample. *)

val source : group -> Source.t

(** {1 Snapshots} *)

type entry_snap = {
  suid : string;  (** source uid *)
  sgen : int;  (** generation: set at registration, renewed by {!reset} *)
  samples : Source.sample list;
}

type snapshot = entry_snap list
(** Registration order. *)

val snapshot : unit -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-sample {!Metric.diff_value}; sources present only in [after] — or
    re-registered under a reused uid after a {!clear}, or reset in
    between — are kept as-is, sources gone from [after] are dropped. *)

val prune : snapshot -> snapshot
(** Drop all-zero samples and then empty sources — keeps exported JSON
    readable. *)

val to_json : ?indent:int -> snapshot -> string

val find : snapshot -> string -> Source.sample list option
val find_sample : snapshot -> string -> string -> Metric.value option
