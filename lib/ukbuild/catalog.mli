(** The Unikraft micro-library catalog: every library the paper's images
    are composed from, with code sizes calibrated so that linked image
    sizes land where Figs 8/9 put them (hello ≈ 200 KB on KVM / 40 KB on
    Xen; nginx/redis/sqlite ≈ 1–2 MB with DCE+LTO). *)

val registry : unit -> Registry.t
(** A fresh registry holding the whole catalog. *)

val platforms : string list
(** "plat-kvm", "plat-xen", "plat-fc", "plat-solo5", "plat-linuxu". *)

val apps : string list
(** "app-hello", "app-nginx", "app-redis", "app-sqlite", "app-webcache",
    "app-udpkv", "app-httpreply". *)

val app_roots :
  app:string ->
  net:bool ->
  fs:bool ->
  ?compat:bool ->
  ?alloc:string ->
  ?sched:string ->
  unit ->
  string list
(** Root libraries for linking [app]: the app itself plus the selected
    allocator/scheduler backends (omitted = none, e.g. helloworld) and,
    when enabled, the network and filesystem driver stacks. [compat]
    (default false) additionally roots ["lib-ukcompat"], the Linux
    personality — letting DCE quantify the image-size cost of binary
    compatibility. Raises [Invalid_argument] for unknown names. *)
