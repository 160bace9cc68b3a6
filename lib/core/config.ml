module K = Ukconf.Kopt
module E = Ukconf.Expr

type alloc_backend = Buddy | Tlsf | Tinyalloc | Mimalloc | Bootalloc | Oscar
type sched_kind = Coop | None_
type fs_kind = No_fs | Ramfs | Ninep | Shfs_fs
type paging = Static_pt | Dynamic_pt | Protected32_pt
type libc = Nolibc | Musl | Newlib
type net_backend = No_net | Vhost_net | Vhost_user

type t = {
  app : string;
  platform : string;
  alloc : alloc_backend;
  sched : sched_kind;
  net : net_backend;
  fs : fs_kind;
  paging : paging;
  libc : libc;
  mem_bytes : int;
  dce : bool;
  lto : bool;
  asan : bool;
  mpk : bool;
}

let alloc_backend_name = function
  | Buddy -> "buddy"
  | Tlsf -> "tlsf"
  | Tinyalloc -> "tinyalloc"
  | Mimalloc -> "mimalloc"
  | Bootalloc -> "bootalloc"
  | Oscar -> "oscar"

let alloc_lib b = "alloc-" ^ alloc_backend_name b

let sched_name = function Coop -> "coop" | None_ -> "none"
let sched_lib = function Coop -> Some "sched-coop" | None_ -> None
let net_name = function No_net -> "none" | Vhost_net -> "vhost-net" | Vhost_user -> "vhost-user"
let fs_name = function No_fs -> "none" | Ramfs -> "ramfs" | Ninep -> "9pfs" | Shfs_fs -> "shfs"

let paging_name = function
  | Static_pt -> "static"
  | Dynamic_pt -> "dynamic"
  | Protected32_pt -> "protected32"

let libc_name = function Nolibc -> "nolibc" | Musl -> "musl" | Newlib -> "newlib"

let schema () =
  let s = Ukconf.Schema.create () in
  let menu_core = [ "Unikraft" ] in
  let menu_lib = [ "Library Configuration" ] in
  Ukconf.Schema.add_all s
    [
      K.choice "PLAT" ~doc:"target platform" ~default:"plat-kvm"
        ~alternatives:Ukbuild.Catalog.platforms ~menu:menu_core;
      K.choice "APP" ~doc:"application" ~default:"app-hello" ~alternatives:Ukbuild.Catalog.apps
        ~menu:menu_core;
      K.bool "HAVE_SCHED" ~doc:"threading support" ~menu:menu_lib;
      K.choice "SCHED" ~doc:"scheduler implementation" ~default:"coop"
        ~alternatives:[ "coop"; "none" ] ~menu:menu_lib;
      K.bool "HAVE_ALLOC" ~doc:"dynamic memory" ~default:true ~menu:menu_lib;
      K.choice "ALLOC" ~doc:"allocator backend" ~default:"tlsf"
        ~alternatives:[ "buddy"; "tlsf"; "tinyalloc"; "mimalloc"; "bootalloc"; "oscar" ]
        ~menu:menu_lib;
      (* mimalloc needs a worker thread (paper §3.2: pthread dependency). *)
      K.bool "ALLOC_MIMALLOC" ~doc:"mimalloc selected" ~selects:[ "HAVE_SCHED" ] ~menu:menu_lib;
      K.bool "HAVE_NETDEV" ~doc:"uknetdev API" ~menu:menu_lib;
      K.bool "LWIP" ~doc:"lwip network stack"
        ~depends:(E.Var "HAVE_NETDEV") ~selects:[ "HAVE_SCHED" ] ~menu:menu_lib;
      K.choice "NETDEV_BACKEND" ~doc:"virtio datapath" ~default:"vhost-net"
        ~alternatives:[ "none"; "vhost-net"; "vhost-user" ] ~menu:menu_lib;
      K.bool "VFSCORE" ~doc:"VFS layer" ~menu:menu_lib;
      K.choice "ROOTFS" ~doc:"root filesystem" ~default:"none"
        ~alternatives:[ "none"; "ramfs"; "9pfs"; "shfs" ] ~menu:menu_lib;
      K.bool "FS_9P" ~doc:"9pfs selected" ~selects:[ "VFSCORE" ] ~menu:menu_lib;
      K.bool "FS_RAM" ~doc:"ramfs selected" ~selects:[ "VFSCORE" ] ~menu:menu_lib;
      K.choice "PAGING" ~doc:"page-table strategy" ~default:"static"
        ~alternatives:[ "static"; "dynamic"; "protected32" ] ~menu:menu_lib;
      K.choice "LIBC" ~doc:"C library" ~default:"musl"
        ~alternatives:[ "nolibc"; "musl"; "newlib" ] ~menu:menu_lib;
      K.int "MEM_MB" ~doc:"guest memory (MiB)" ~default:32 ~min:2 ~max:4096 ~menu:menu_core;
      K.bool "OPT_DCE" ~doc:"dead code elimination" ~default:true ~menu:menu_core;
      K.bool "OPT_LTO" ~doc:"link-time optimization" ~default:true ~menu:menu_core;
      K.bool "ASAN" ~doc:"address sanitizer on the heap" ~menu:[ "Security" ]
        ~depends:(E.Var "HAVE_ALLOC");
      K.bool "MPK" ~doc:"MPK compartmentalization support" ~menu:[ "Security" ];
    ];
  s

let to_kconfig t =
  [
    ("PLAT", K.Choice t.platform);
    ("APP", K.Choice t.app);
    (* Explicit, so a library that selects it (mimalloc's worker thread,
       lwip's input thread) in an image without a scheduler is a select
       conflict the resolver reports, never a silent flip. *)
    ("HAVE_SCHED", K.Bool (t.sched <> None_));
    ("SCHED", K.Choice (sched_name t.sched));
    ("HAVE_ALLOC", K.Bool true);
    ("ALLOC", K.Choice (alloc_backend_name t.alloc));
    ("ALLOC_MIMALLOC", K.Bool (t.alloc = Mimalloc));
    ("HAVE_NETDEV", K.Bool (t.net <> No_net));
    ("LWIP", K.Bool (t.net <> No_net));
    ("NETDEV_BACKEND", K.Choice (net_name t.net));
    ("VFSCORE", K.Bool (match t.fs with Ramfs | Ninep -> true | No_fs | Shfs_fs -> false));
    ("ROOTFS", K.Choice (fs_name t.fs));
    ("FS_9P", K.Bool (t.fs = Ninep));
    ("FS_RAM", K.Bool (t.fs = Ramfs));
    ("PAGING", K.Choice (paging_name t.paging));
    ("LIBC", K.Choice (libc_name t.libc));
    ("MEM_MB", K.Int (t.mem_bytes / (1024 * 1024)));
    ("OPT_DCE", K.Bool t.dce);
    ("OPT_LTO", K.Bool t.lto);
    ("ASAN", K.Bool t.asan);
    ("MPK", K.Bool t.mpk);
  ]

let resolve t =
  match Ukconf.Config.resolve (schema ()) (to_kconfig t) with
  | Ok c -> Ok c
  | Error errs ->
      Error (String.concat "; " (List.map Ukconf.Config.error_to_string errs))

let make ~app ?(platform = "plat-kvm") ?(alloc = Tlsf) ?(sched = Coop) ?(net = No_net)
    ?(fs = No_fs) ?(paging = Static_pt) ?(libc = Musl) ?(mem_mb = 32) ?(dce = true)
    ?(lto = true) ?(asan = false) ?(mpk = false) () =
  if not (List.mem app Ukbuild.Catalog.apps) then
    Error (Printf.sprintf "unknown application %s" app)
  else if not (List.mem platform Ukbuild.Catalog.platforms) then
    Error (Printf.sprintf "unknown platform %s" platform)
  else begin
    let t =
      { app; platform; alloc; sched; net; fs; paging; libc;
        mem_bytes = mem_mb * 1024 * 1024; dce; lto; asan; mpk }
    in
    match resolve t with
    | Ok _ -> Ok t
    | Error e -> Error e
  end

let pp ppf t =
  Fmt.pf ppf "%s on %s [alloc=%s sched=%s net=%s fs=%s paging=%s libc=%s mem=%a dce=%b lto=%b]"
    t.app t.platform (alloc_backend_name t.alloc) (sched_name t.sched) (net_name t.net)
    (fs_name t.fs) (paging_name t.paging) (libc_name t.libc) Uksim.Units.pp_bytes t.mem_bytes
    t.dce t.lto;
  if t.asan then Fmt.pf ppf " +asan";
  if t.mpk then Fmt.pf ppf " +mpk"
