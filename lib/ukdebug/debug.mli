(** The ukdebug micro-library (paper §7, "Debugging").

    Three facilities, as described in the paper:
    - criticality-levelled message printing with a configurable threshold
      (and the bottom-of-stack annotation option);
    - a trace-point system recording into a fixed-size ring buffer;
    - an abstraction to plug in disassemblers (the paper ports Zydis for
      x86; here a plug-in renders "instruction" words to text).

    Assertions can be compiled in or out; when in, failures raise. All
    output goes through a sink function so unikernels can route it to
    their console model. *)

type level = Crit | Error | Warn | Info | Debug

type t

val create :
  clock:Uksim.Clock.t ->
  ?threshold:level ->
  ?assertions:bool ->
  ?print_stack_bottom:int option ->
  ?sink:(string -> unit) ->
  unit ->
  t
(** Defaults: threshold [Info], assertions on, no stack annotation, sink
    discards (messages are still counted). Each emitted message charges a
    console-write cost. *)

val set_threshold : t -> level -> unit
val threshold : t -> level

val printk : t -> level -> string -> unit
(** Emit if [level] is at or above the threshold. *)

val messages_emitted : t -> int
val messages_suppressed : t -> int

(** {1 Assertions} *)

exception Assertion_failed of string

val uk_assert : t -> bool -> string -> unit
(** Raises {!Assertion_failed} when assertions are compiled in and the
    condition is false; free no-op otherwise. *)

val assertions_enabled : t -> bool

(** {1 Trace points} *)

module Trace : sig
  type event = { tp_name : string; at_ns : float; arg : int }

  val register : t -> string -> unit
  (** Declare a trace point; firing an undeclared one raises
      [Invalid_argument]. *)

  val fire : t -> string -> int -> unit
  (** Record an event (overwrites the oldest once the ring is full). *)

  val events : t -> event list
  (** Oldest first; at most the ring capacity (256). *)

  val count : t -> string -> int
  (** Total fires of one trace point (including overwritten ones). *)

  val clear : t -> unit
end

(** {1 Disassembler plug-ins} *)

module Disasm : sig
  type plugin = { arch : string; render : int -> string }

  val register : t -> plugin -> unit
  val disassemble : t -> arch:string -> int list -> (string list, string) result
  (** [Error] if no plug-in handles [arch]. *)

  val zydis_like : plugin
  (** A toy x86-ish renderer standing in for the paper's Zydis port. *)
end
