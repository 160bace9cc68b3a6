(** Tracepoints on the virtual clock.

    Spans ([begin_span]/[end_span] or the bracketing {!span}) and
    {!instant} events carry a category (owning subsystem), a core id and
    a cycle timestamp. Events land in a bounded ring — overflow drops
    the oldest and is counted — so tracing is always safe to leave
    enabled. Span nesting is folded online into a flamegraph table
    (exact even after ring overflow), and the innermost open span's
    category is what the profiling sampler ({!attribute}) charges
    stepped cycles to.

    Determinism guarantee: the tracer never advances a clock and never
    draws randomness, so enabling or disabling it cannot change a
    simulation's behaviour (verified by the [trace_hash] replay tests —
    see DESIGN.md §7). When disabled, every entry point is a single
    branch. *)

type phase = B | E | I

type event = { ph : phase; ts : int (* cycles *); core : int; cat : string; name : string }

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity in events (default 65536). The ring is made at the
    first recorded event, so a tracer that records nothing holds none. *)

val default : t
(** The process-wide tracer instrumentation points use. Disabled until
    {!set_enabled}. *)

val set_enabled : t -> bool -> unit
(** Disabling abandons any open spans. *)

val enabled : t -> bool

val reset : t -> unit
(** Drop all events, open spans, flamegraph and sampler state. Keeps the
    enabled flag. *)

(** {1 Recording} *)

val instant : t -> ?core:int -> cat:string -> ts:int -> string -> unit

val begin_span : t -> ?core:int -> cat:string -> ts:int -> string -> unit

val end_span : t -> ?core:int -> ts:int -> unit -> unit
(** Closes the innermost open span on [core]; unmatched ends are
    ignored. *)

val span : t -> Uksim.Clock.t -> ?core:int -> cat:string -> string -> (unit -> 'a) -> 'a
(** Bracket [f] in a span timed on [clock]; exception-safe. When the
    tracer is disabled this is just [f ()]. *)

(** {1 Profiling sampler} *)

val attribute : t -> core:int -> cycles:int -> unit
(** Charge [cycles] (from an engine/SMP step observer) to the innermost
    open span's category on [core], or to ["unattributed"]. *)

val attribution : t -> (string * int) list
(** Category -> cycles, largest first. *)

(** {1 Inspection & export} *)

val events : t -> event list
(** Ring contents, oldest first. *)

val dropped : t -> int
val recorded : t -> int
val spans_closed : t -> int

val flame : t -> (string * int) list
(** Folded flamegraph: ["cat:name;cat:name"] root-first path -> self
    cycles (children's cycles excluded), largest first. *)

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON (load in chrome://tracing or Perfetto);
    spans as B/E pairs, instants as "i", tid = core. *)

val register_source : t -> unit
(** Register the tracer's own counters (events, drops, spans, sampler
    attribution) as a sticky registry source. *)
