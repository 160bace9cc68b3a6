(** The ukalloc API (paper §3.2).

    An allocator is a record of operations over a region of the simulated
    address space — the OCaml rendering of [struct uk_alloc]'s function
    pointers. Several allocators can coexist in one unikernel; requests name
    the backend explicitly ([uk_malloc a size]), mirroring the paper's
    multiplexing layer.

    Addresses are plain integers into the simulated physical address space;
    backends guarantee non-overlapping live allocations and alignment. All
    backends charge their work to the {!Uksim.Clock.t} they were initialized
    with, so allocation behaviour shows up in virtual-time measurements. *)

type t = {
  name : string;
  malloc : int -> int option;
  calloc : int -> int -> int option;
  memalign : align:int -> int -> int option;
  free : int -> unit;
  realloc : int -> int -> int option;
  availmem : unit -> int;  (** free bytes remaining (approximate for some backends) *)
  source : Uktrace.Source.t;
      (** The allocator's counters, read with {!Uktrace.Source.count} and
          {!Uktrace.Source.level}. A backend's source is ["ukalloc.<name>"]
          (see {!backend}); {!Percore} views share their arena's
          ["ukalloc.percore"]. Wrappers built with [{ a with ... }] share
          the wrapped allocator's source, so nothing is counted twice. It
          joins the {!Uktrace.Registry} with the allocator's {!Registry}
          registration. *)
}

val uk_malloc : t -> int -> int option
(** [uk_malloc a size] — the paper's [uk_malloc(a, size)]. *)

val uk_calloc : t -> int -> int -> int option
val uk_free : t -> int -> unit
val uk_memalign : t -> align:int -> int -> int option
val uk_realloc : t -> int -> int -> int option

val is_power_of_two : int -> bool
val round_up : int -> int -> int
(** [round_up n align] rounds [n] up to a multiple of [align] (a power of
    two). *)

val log2_ceil : int -> int
val log2_floor : int -> int

(** {1 Backends} *)

(** The counting every backend shares. Each backend passes the bytes it
    accounts for: the requested size, or the block size where it keeps no
    request size. *)
module Counts : sig
  type t

  val create : unit -> t

  val alloc : t -> int -> unit
  (** One successful allocation of that many bytes. *)

  val free : t -> int -> unit
  (** One free, releasing that many bytes (0 for a region allocator that
      never reclaims). *)

  val failed : t -> unit
  (** One out-of-memory failure. *)
end

val backend :
  name:string ->
  ?metadata:(unit -> int) ->
  memalign:(align:int -> int -> int option) ->
  free:(int -> unit) ->
  realloc:(int -> int -> int option) ->
  availmem:(unit -> int) ->
  Counts.t ->
  t
(** A backend's record. [malloc] is [memalign ~align:16], [calloc n size]
    is [None] unless both are positive and otherwise mallocs [n * size],
    and [source] is ["ukalloc.<name>"]: counts [allocs] (successful
    malloc/calloc/memalign calls), [frees] and [failed] (out-of-memory
    failures); levels [bytes_in_use], [peak_bytes] and [metadata_bytes]
    ([metadata ()] at snapshot time, default 0). *)

val traced : clock:Uksim.Clock.t -> t -> t
(** Wrap every operation in a ["ukalloc"] tracepoint span timed on
    [clock]. Free when the default tracer is disabled. *)

(** {1 Registry}

    ukboot registers each initialized allocator here; the first registration
    becomes the default used by the libc layer (paper: "the boot process
    sets the association between memory allocators and memory sources"). *)

module Registry : sig
  type allocator := t
  type t

  val create : unit -> t

  val register : t -> allocator -> unit
  (** First registered allocator becomes the default. The allocator's
      [source] joins the {!Uktrace.Registry}. Raises [Invalid_argument]
      on duplicate allocator names. *)

  val default : t -> allocator option
  val find : t -> string -> allocator option

  val all : t -> allocator list
  (** Registration order. *)
end
