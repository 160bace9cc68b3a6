(** Fleet images and their one-time calibration.

    An image names an application plus its memory footprint. Calibration
    runs a {e real} boot of the image's constructor table through
    {!Ukplat.Vmm.boot} (VMM startup, guest early init, NIC attach, then
    ukalloc / uknetstack / application constructors charging the virtual
    clock) and a {e real} closed-loop load over a loopback
    {!Uknetstack.Stack} pair to measure the per-request service time.
    Every fleet-model cost therefore descends from the same calibrated
    substrate the single-instance experiments measure — the fleet pays
    full boot once, here, and replays it at scale.

    Calibration is deterministic and cached per (image, VMM). *)

type app =
  | Httpd
  | Infer of int  (** model size, MiB *)
  | Store  (** crash-consistent merkle KV ({!Ukapps.Store}) *)

type t = {
  name : string;
  app : app;
  mem_mb : int;  (** guest memory footprint — sets the snapshot-clone copy cost *)
}

val httpd : t
(** The nginx-like static server, 612 B page, 8 MB guest (Fig 11 scale). *)

val store : unit -> t
(** The crash-consistent content-addressed KV server ({!Ukapps.Store}),
    12 MB guest. The image's disk is formatted, populated and
    checkpointed host-side (the registry build); a cold boot pays the
    mount — root-slot scan plus journal replay — instead of a weight
    stream, so boot time grows with the journal depth the image (or a
    crash) left behind. *)

val infer : ?size_mb:int -> unit -> t
(** The batched model server ({!Ukapps.Infer}); [size_mb] (default 32)
    is the weight file streamed from a {!Ukvfs.Blockfs} store at boot.
    Guest footprint is [8 + size_mb] MB — a cold boot streams weights
    through the windowed block path, while a snapshot clone must copy
    the full loaded footprint, which is what makes the clone-vs-cold
    crossover model-size dependent. *)

type calib = {
  breakdown : Ukplat.Vmm.boot_breakdown;  (** VMM + guest split of one cold boot *)
  boot_report : Ukboot.Boot.report;  (** per-constructor phases of that boot *)
  service_ns : float;  (** measured per-request occupancy on the real stack *)
}

val calibrate : t -> vmm:Ukplat.Vmm.t -> calib

val uncache : t -> unit
(** Drop every cached calibration of this image (any VMM) — lets a
    model-size sweep release each size's calibration rig state before
    building the next. *)

val profile_app : t -> string
(** The {!Ukos.Profiles} application key ("nginx", "redis" for the
    store, "inference") used to
    derive baseline-OS request costs for this image. *)
