(** VM instantiation: boot a configured image on a VMM and obtain live
    runtime components (the execution side of the paper's Fig 4).

    Booting runs the real initialization of every selected micro-library —
    page-table construction, allocator bring-up over the configured heap,
    scheduler creation, virtio device attach, filesystem mounts — on the
    virtual clock, so per-phase boot costs (Figs 10, 14, 21) come out of
    the same code that the application then uses. *)

type env = {
  config : Config.t;
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t option;
  alloc : Ukalloc.Alloc.t;  (** the configured main allocator *)
  registry : Ukalloc.Alloc.Registry.t;
  mmu : Ukmmu.Pagetable.t;
  shim : Uksyscall.Shim.t;
  dev : Uknetdev.Netdev.t option;
  stack : Uknetstack.Stack.t option;
  vfs : Ukvfs.Vfs.t option;
  shfs : Ukvfs.Shfs.t option;
  debug : Ukdebug.Debug.t;  (** ukdebug instance; boot fires "boot.ctor" trace points *)
  params : Uklibparam.Libparam.t;  (** boot command-line tunables *)
  argv : string list;  (** remainder of the command line after "--" *)
  asan : Ukalloc.Asan.t option;  (** present when the config enables the sanitizer *)
  mpk : Ukmpk.Mpk.t option;  (** present when the config enables MPK *)
  breakdown : Ukplat.Vmm.boot_breakdown;
  report : Ukboot.Boot.report;
}

val boot :
  vmm:Ukplat.Vmm.t ->
  ?clock:Uksim.Clock.t ->
  ?engine:Uksim.Engine.t ->
  ?wire:Uknetdev.Wire.endpoint ->
  ?ip:string ->
  ?mac:int ->
  ?host_share:Ukvfs.Fs.t ->
  ?cmdline:string ->
  Config.t ->
  (env, string) result
(** [engine] must be the engine the attached [wire] was created on (a
    fresh one is made otherwise). [wire] is mandatory when networking is
    configured; [host_share] backs the 9p server when the root filesystem
    is 9pfs (default: an empty host-side ramfs). Default addressing:
    172.44.0.2/24 with no gateway — overridable from [cmdline] via
    uklibparam ("netdev.ip=10.0.0.5 netdev.netmask=255.255.0.0
    netdev.gw=10.0.0.1 ukdebug.loglevel=4 -- app args"). The netmask and
    the gateway are set only there. *)

val run_main : env -> (env -> unit) -> unit
(** Execute the application entry point: spawned on the scheduler when one
    is configured (then the scheduler runs to quiescence), called inline
    otherwise. *)
