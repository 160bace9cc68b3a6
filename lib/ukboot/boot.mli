(** The ukboot API: ordered boot of a unikernel image (paper §3.2, §5.1).

    Micro-libraries register constructors on an init table at fixed levels;
    boot runs levels in ascending order, timing each phase on the virtual
    clock, and finally jumps to [main]. The per-phase report is what Figs
    10, 14 and 21 plot. *)

(** Conventional init levels, mirroring Unikraft's uk_inittab. *)
module Level : sig
  val early : int (* 1: platform bring-up, consoles *)
  val paging : int (* 2: ukmmu *)
  val alloc : int (* 3: ukalloc backends *)
  val sched : int (* 4: uksched *)
  val bus : int (* 5: device buses: uknetdev, virtio-9p *)
  val fs : int (* 6: filesystem mounts *)
  val late : int (* 7: application constructors *)
end

module Inittab : sig
  type t

  val create : unit -> t

  val register : t -> level:int -> name:string -> (unit -> unit) -> unit
  (** Constructors at the same level run in registration order. Levels must
      be within [1..7]. *)

  val entries : t -> (int * string) list
  (** (level, name) in execution order. *)
end

type phase_report = {
  phase : string;
  level : int;
  start_ns : float;  (** since boot start *)
  duration_ns : float;
}

type report = {
  guest_boot_ns : float;  (** first guest instruction to [main] entry *)
  phases : phase_report list;
}

exception Constructor_failed of { phase : string; level : int; cause : exn }
(** A constructor raised mid-boot: the culprit phase and level are named
    so a failed boot is attributable without re-running. *)

val run : clock:Uksim.Clock.t -> ?main:(unit -> unit) -> Inittab.t -> report
(** Execute the boot sequence. The report covers constructor phases only —
    i.e. the time from the first guest instruction until [main] is invoked,
    matching the paper's guest-boot measurements; [main]'s own run time is
    excluded. A constructor that raises aborts the boot with
    {!Constructor_failed}. Per-phase timings of the most recent boot (and
    a cumulative boot count) are published as a sticky ["ukboot.boot"]
    {!Uktrace.Registry} source. *)

val source : unit -> Uktrace.Source.t
(** The sticky ["ukboot.boot"] source, registered on first use (the
    first {!run} or call): [boots], and the most recent boot's
    [guest_boot_ns] and per-phase [phase.<level>.<phase>_ns]. *)
