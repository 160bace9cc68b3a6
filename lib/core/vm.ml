type env = {
  config : Config.t;
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t option;
  alloc : Ukalloc.Alloc.t;
  registry : Ukalloc.Alloc.Registry.t;
  mmu : Ukmmu.Pagetable.t;
  shim : Uksyscall.Shim.t;
  dev : Uknetdev.Netdev.t option;
  stack : Uknetstack.Stack.t option;
  vfs : Ukvfs.Vfs.t option;
  shfs : Ukvfs.Shfs.t option;
  debug : Ukdebug.Debug.t;
  params : Uklibparam.Libparam.t;
  argv : string list;  (** post-"--" remainder of the boot command line *)
  asan : Ukalloc.Asan.t option;
  mpk : Ukmpk.Mpk.t option;
  breakdown : Ukplat.Vmm.boot_breakdown;
  report : Ukboot.Boot.report;
}

(* Base simulated address of the guest heap: 64 MiB, clear of image and
   boot stacks. *)
let heap_base = 1 lsl 26

(* Largest power of two <= n (buddy wants a power-of-two region). *)
let floor_pow2 n =
  let rec go p = if p * 2 > n then p else go (p * 2) in
  go 1

let make_alloc (c : Config.t) ~clock =
  let len = max (1 lsl 20) (c.mem_bytes - (c.mem_bytes / 8)) in
  match c.alloc with
  | Config.Buddy ->
      let len = floor_pow2 len in
      Ukalloc.Buddy.create ~clock ~base:len ~len
  | Config.Tlsf -> Ukalloc.Tlsf.create ~clock ~base:heap_base ~len
  | Config.Tinyalloc -> Ukalloc.Tinyalloc.create ~clock ~base:heap_base ~len
  | Config.Mimalloc -> Ukalloc.Mimalloc.create ~clock ~base:heap_base ~len
  | Config.Bootalloc -> Ukalloc.Bootalloc.create ~clock ~base:heap_base ~len
  | Config.Oscar -> Ukalloc.Oscar.create ~clock ~base:heap_base ~len

let paging_mode = function
  | Config.Static_pt -> Ukmmu.Pagetable.Static
  | Config.Dynamic_pt -> Ukmmu.Pagetable.Dynamic
  | Config.Protected32_pt -> Ukmmu.Pagetable.Protected32

(* The interface netmask unless the command line sets [netdev.netmask]. *)
let default_netmask = "255.255.255.0"

let boot ~vmm ?clock ?engine ?wire ?(ip = "172.44.0.2") ?(mac = 0x00163e001002) ?host_share
    ?(cmdline = "") (c : Config.t) =
  match Config.resolve c with
  | Error e -> Error e
  | Ok _ -> (
      match (c.net, wire) with
      | (Config.Vhost_net | Config.Vhost_user), None ->
          Error "networking configured but no wire attached"
      | (Config.No_net | Config.Vhost_net | Config.Vhost_user), _ -> (
          (* Kernel command line: uklibparam tunables first, app argv
             after "--". *)
          let params = Uklibparam.Libparam.create () in
          let reg_p = Uklibparam.Libparam.register params in
          reg_p ~lib:"netdev" ~name:"ip" ~doc:"interface address"
            (Uklibparam.Libparam.String ip);
          reg_p ~lib:"netdev" ~name:"netmask" ~doc:"interface netmask"
            (Uklibparam.Libparam.String default_netmask);
          reg_p ~lib:"netdev" ~name:"gw" ~doc:"default gateway"
            (Uklibparam.Libparam.String "");
          reg_p ~lib:"ukdebug" ~name:"loglevel" ~doc:"0=crit..4=debug"
            (Uklibparam.Libparam.Int 3);
          match Uklibparam.Libparam.parse params cmdline with
          | Error e -> Error ("bad command line: " ^ e)
          | Ok argv ->
          let pstr lib name fallback =
            match Uklibparam.Libparam.get_string params ~lib ~name with
            | Some "" | None -> fallback
            | Some s -> s
          in
          let ip = pstr "netdev" "ip" ip in
          let netmask = pstr "netdev" "netmask" default_netmask in
          let gateway =
            match Uklibparam.Libparam.get_string params ~lib:"netdev" ~name:"gw" with
            | Some "" | None -> None
            | Some g -> Some g
          in
          let clock = match clock with Some c -> c | None -> Uksim.Clock.create () in
          let engine = match engine with Some e -> e | None -> Uksim.Engine.create clock in
          (* Component slots filled by the constructors below. *)
          let mmu = ref None in
          let alloc = ref None in
          let sched = ref None in
          let dev = ref None in
          let stack = ref None in
          let vfs = ref None in
          let shfs = ref None in
          let asan_t = ref None in
          let mpk_t = ref None in
          let registry = Ukalloc.Alloc.Registry.create () in
          let loglevel =
            match Uklibparam.Libparam.get_int params ~lib:"ukdebug" ~name:"loglevel" with
            | Some 0 -> Ukdebug.Debug.Crit
            | Some 1 -> Ukdebug.Debug.Error
            | Some 2 -> Ukdebug.Debug.Warn
            | Some 4 -> Ukdebug.Debug.Debug
            | Some _ | None -> Ukdebug.Debug.Info
          in
          let debug = Ukdebug.Debug.create ~clock ~threshold:loglevel () in
          Ukdebug.Debug.Trace.register debug "boot.ctor";
          let shim = Uksyscall.Shim.create ~clock ~mode:Uksyscall.Shim.Native_link in
          let tab = Ukboot.Boot.Inittab.create () in
          let reg ~level ~name ctor =
            Ukboot.Boot.Inittab.register tab ~level ~name (fun () ->
                Ukdebug.Debug.Trace.fire debug "boot.ctor" level;
                Ukdebug.Debug.printk debug Ukdebug.Debug.Info ("init " ^ name);
                ctor ())
          in
          reg ~level:Ukboot.Boot.Level.paging ~name:"ukmmu" (fun () ->
              mmu := Some (Ukmmu.Pagetable.create ~clock ~mode:(paging_mode c.paging)
                             ~ram_bytes:c.mem_bytes));
          reg ~level:Ukboot.Boot.Level.alloc
            ~name:(Printf.sprintf "ukalloc/%s" (Config.alloc_backend_name c.alloc))
            (fun () ->
              let a = make_alloc c ~clock in
              if c.asan then begin
                (* §7: sanitized build — the heap every consumer sees is
                   the redzoned, quarantined wrapper. *)
                let wrapped = Ukalloc.Asan.wrap ~clock a in
                asan_t := Some wrapped;
                let traced = Ukalloc.Alloc.traced ~clock (Ukalloc.Asan.alloc wrapped) in
                Ukalloc.Alloc.Registry.register registry traced;
                alloc := Some traced
              end
              else begin
                let traced = Ukalloc.Alloc.traced ~clock a in
                Ukalloc.Alloc.Registry.register registry traced;
                alloc := Some traced
              end);
          (match c.sched with
          | Config.None_ -> ()
          | Config.Coop ->
              reg ~level:Ukboot.Boot.Level.sched ~name:"uksched/coop" (fun () ->
                  sched := Some (Uksched.Sched.create_cooperative ~clock ~engine)));
          (match c.net with
          | Config.No_net -> ()
          | Config.Vhost_net | Config.Vhost_user ->
              let backend =
                match c.net with
                | Config.Vhost_user -> Uknetdev.Virtio_net.Vhost_user
                | Config.Vhost_net | Config.No_net -> Uknetdev.Virtio_net.Vhost_net
              in
              reg ~level:Ukboot.Boot.Level.bus ~name:"virtio-net" (fun () ->
                  let w = Option.get wire in
                  let d = Uknetdev.Virtio_net.create ~clock ~engine ~backend ~wire:w () in
                  dev := Some d);
              (* [Config.resolve] has rejected lwip without a scheduler
                 (LWIP selects HAVE_SCHED), and the scheduler comes up
                 at an earlier level. *)
              reg ~level:Ukboot.Boot.Level.bus ~name:"lwip" (fun () ->
                  stack :=
                    Some
                      (Uknetstack.Stack.create ~clock ~engine ~sched:(Option.get !sched)
                         ?alloc:!alloc ~dev:(Option.get !dev)
                         {
                           Uknetstack.Stack.mac = Uknetstack.Addr.Mac.of_int mac;
                           ip = Uknetstack.Addr.Ipv4.of_string ip;
                           netmask = Uknetstack.Addr.Ipv4.of_string netmask;
                           gateway = Option.map Uknetstack.Addr.Ipv4.of_string gateway;
                         })));
          (match c.fs with
          | Config.No_fs -> ()
          | Config.Ramfs ->
              reg ~level:Ukboot.Boot.Level.fs ~name:"vfscore+ramfs" (fun () ->
                  let v = Ukvfs.Vfs.create ~clock in
                  (match Ukvfs.Vfs.mount v ~at:"/" (Ukvfs.Ramfs.create ~clock ()) with
                  | Ok () -> ()
                  | Error e -> failwith (Ukvfs.Fs.errno_to_string e));
                  vfs := Some v)
          | Config.Ninep ->
              reg ~level:Ukboot.Boot.Level.fs ~name:"vfscore+9pfs" (fun () ->
                  let host_clock = Uksim.Clock.create () in
                  let backing =
                    match host_share with
                    | Some fs -> fs
                    | None -> Ukvfs.Ramfs.create ~clock:host_clock ()
                  in
                  let server = Ukvfs.Ninep_server.create ~backing in
                  let transport = Ukvfs.Ninep_client.Transport.virtio_9p ~clock ~server in
                  match Ukvfs.Ninep_client.create ~transport with
                  | Error e -> failwith e
                  | Ok fs ->
                      let v = Ukvfs.Vfs.create ~clock in
                      (match Ukvfs.Vfs.mount v ~at:"/" fs with
                      | Ok () -> ()
                      | Error e -> failwith (Ukvfs.Fs.errno_to_string e));
                      vfs := Some v)
          | Config.Shfs_fs ->
              reg ~level:Ukboot.Boot.Level.fs ~name:"shfs" (fun () ->
                  shfs := Some (Ukvfs.Shfs.create ~clock)));
          if c.mpk then
            reg ~level:Ukboot.Boot.Level.early ~name:"ukmpk" (fun () ->
                mpk_t := Some (Ukmpk.Mpk.create ~clock));
          (* POSIX surface: register the supported syscall set when a real
             libc is configured. *)
          (match c.libc with
          | Config.Musl | Config.Newlib ->
              reg ~level:Ukboot.Boot.Level.late ~name:"posix/syscall-shim" (fun () ->
                  Uksyscall.Appdb.install_supported shim;
                  Uksim.Clock.advance clock 9000)
          | Config.Nolibc -> ());
          let nics = if c.net = Config.No_net then 0 else 1 in
          let with_9p = c.fs = Config.Ninep in
          match
            Ukplat.Vmm.boot vmm ~clock ~nics ~with_9p ~inittab:tab ()
          with
          | breakdown, report ->
              Ok
                {
                  config = c;
                  clock;
                  engine;
                  sched = !sched;
                  alloc = Option.get !alloc;
                  registry;
                  mmu = Option.get !mmu;
                  shim;
                  dev = !dev;
                  stack = !stack;
                  vfs = !vfs;
                  shfs = !shfs;
                  debug;
                  params;
                  argv;
                  asan = !asan_t;
                  mpk = !mpk_t;
                  breakdown;
                  report;
                }
          | exception Failure e -> Error e))

let run_main env f =
  match env.sched with
  | Some sched ->
      let _ = Uksched.Sched.spawn sched ~name:"main" (fun () -> f env) in
      Uksched.Sched.run sched
  | None -> f env
