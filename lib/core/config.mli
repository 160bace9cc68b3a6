(** The Unikraft configuration menu (paper §3: "a Kconfig-based menu for
    users to select which micro-libraries to use in an application
    build").

    Build a configuration with {!make} (or {!resolve} for raw option
    lists); the result selects which micro-libraries are linked into the
    image ({!Image}) and which runtime components a VM instantiates
    ({!Vm}). *)

val schema : unit -> Ukconf.Schema.t
(** The full menu: platform/app/allocator/scheduler choices, network and
    filesystem stacks, paging mode, memory size, libc, DCE/LTO. Dependency
    edges mirror the paper's (e.g. lwip depends on uknetdev; mimalloc
    selects threading for its worker; 9pfs selects vfscore). *)

type alloc_backend = Buddy | Tlsf | Tinyalloc | Mimalloc | Bootalloc | Oscar
type sched_kind = Coop | None_
type fs_kind = No_fs | Ramfs | Ninep | Shfs_fs
type paging = Static_pt | Dynamic_pt | Protected32_pt
type libc = Nolibc | Musl | Newlib
type net_backend = No_net | Vhost_net | Vhost_user

type t = {
  app : string;  (** catalog app name, e.g. "app-nginx" *)
  platform : string;  (** catalog platform, e.g. "plat-kvm" *)
  alloc : alloc_backend;
  sched : sched_kind;
  net : net_backend;
  fs : fs_kind;
  paging : paging;
  libc : libc;
  mem_bytes : int;
  dce : bool;
  lto : bool;
  asan : bool;  (** wrap the allocator with the sanitizer (§7) *)
  mpk : bool;  (** provision MPK compartmentalization (§7) *)
}

val make :
  app:string ->
  ?platform:string ->
  ?alloc:alloc_backend ->
  ?sched:sched_kind ->
  ?net:net_backend ->
  ?fs:fs_kind ->
  ?paging:paging ->
  ?libc:libc ->
  ?mem_mb:int ->
  ?dce:bool ->
  ?lto:bool ->
  ?asan:bool ->
  ?mpk:bool ->
  unit ->
  (t, string) result
(** Defaults: plat-kvm, tlsf, coop, no net, no fs, static page table,
    musl, 32 MB, DCE+LTO on, sanitizer and MPK off. Validates through the
    Kconfig schema, so dependency violations (e.g. mimalloc or a network
    stack with [sched = None_]) are reported. *)

val resolve : t -> (Ukconf.Config.t, string) result
(** Validate against {!schema}. *)

val alloc_backend_name : alloc_backend -> string
val alloc_lib : alloc_backend -> string
(** Catalog micro-library name ("alloc-tlsf"). *)

val sched_lib : sched_kind -> string option
val pp : Format.formatter -> t -> unit
