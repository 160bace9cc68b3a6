(** Baseline operating systems the paper compares against (Figs 9, 11, 12,
    13 and the boot-time baselines in §5.1).

    Each profile composes two kinds of information:

    - {e measured anchors} published in the paper itself (boot times in
      §5.1; the throughput relationships of §5.3; image-size and
      memory-floor orders of magnitude of Figs 9/11), encoded as data;
    - {e mechanistic overheads} (syscall dispatch class, per-request extra
      kernel-path cycles) used by the throughput harness to derive
      baseline request rates from the simulated Unikraft workload: a
      baseline's rate is computed by adding its per-request overhead to
      the measured Unikraft per-request cycle cost. *)

type t = {
  os_name : string;
  image_kb : (string * int) list;
      (** per app ("hello", "nginx", "redis", "sqlite"): stripped image
          size, KB (Fig 9); apps the OS cannot run are absent *)
  min_mem_mb : (string * int) list;  (** Fig 11 memory floor, MB *)
  boot_ns : float option;  (** §5.1 boot-time baseline; None = not reported *)
  relative_request_cost : (string * float) list;
      (** per app: per-request path length relative to the Unikraft
          QEMU/KVM path (1.0 = equal; 2.4 = each request costs 2.4x the
          cycles, i.e. Unikraft is 140% faster). Encodes the §5.3
          relationships; apps the OS cannot run are absent. *)
  notes : string;
}

val request_cost_factor : t -> app:string -> float option

val linux_vm : t
val docker : t

val all : t list
val find : string -> t option
(** The other profiles are reached by name, e.g. [find "osv"]. *)

val firecracker_penalty : float
(** Multiplicative throughput penalty for Firecracker vs QEMU/KVM
    (paper §5.3 and [24]): FC's emulated virtio path is slower. *)
