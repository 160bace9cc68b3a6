(* Integration tests for the unikraft core: configuration, image builds,
   VM boot, end-to-end application serving, and ukos profiles. *)

module Cfg = Unikraft.Config
module Img = Unikraft.Image
module Vm = Unikraft.Vm
module Vmm = Ukplat.Vmm
module A = Uknetstack.Addr

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let test_config_defaults () =
  let c = ok (Cfg.make ~app:"app-hello" ()) in
  Alcotest.(check string) "platform" "plat-kvm" c.Cfg.platform;
  Alcotest.(check bool) "dce on" true c.Cfg.dce;
  match Cfg.resolve c with Ok _ -> () | Error e -> Alcotest.fail e

let test_config_validation () =
  (match Cfg.make ~app:"app-nope" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown app accepted");
  (match Cfg.make ~app:"app-hello" ~platform:"plat-nope" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown platform accepted");
  (* The resolver alone decides that an image needs a scheduler: mimalloc
     (its worker thread) and lwip (its input thread) select HAVE_SCHED,
     which an image without one sets false. A record built by hand, past
     [make], is rejected the same way, so every booted stack has a
     scheduler to run under. *)
  let rejects what selector = function
    | Error msg ->
        Alcotest.(check bool) (what ^ ": the select conflict is named") true
          (Astring_contains.contains msg "HAVE_SCHED" && Astring_contains.contains msg selector)
    | Ok _ -> Alcotest.failf "%s without a scheduler accepted" what
  in
  rejects "mimalloc" "ALLOC_MIMALLOC"
    (Cfg.make ~app:"app-redis" ~alloc:Cfg.Mimalloc ~sched:Cfg.None_ ());
  rejects "a network stack" "LWIP"
    (Cfg.make ~app:"app-nginx" ~net:Cfg.Vhost_net ~sched:Cfg.None_ ());
  let c = ok (Cfg.make ~app:"app-nginx" ~net:Cfg.Vhost_net ()) in
  rejects "a hand-built network record" "LWIP"
    (Result.map (fun _ -> c) (Cfg.resolve { c with Cfg.sched = Cfg.None_ }));
  rejects "a hand-built mimalloc record" "ALLOC_MIMALLOC"
    (Result.map (fun _ -> c)
       (Cfg.resolve { c with Cfg.net = Cfg.No_net; alloc = Cfg.Mimalloc; sched = Cfg.None_ }))

let test_config_kconfig_rendering () =
  let c = ok (Cfg.make ~app:"app-nginx" ~net:Cfg.Vhost_net ()) in
  let resolved = ok (Cfg.resolve c) in
  let text = Ukconf.Config.to_dotconfig resolved in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "LWIP=y" true (List.mem "CONFIG_LWIP=y" lines);
  Alcotest.(check bool) "APP set" true (List.mem "CONFIG_APP=app-nginx" lines)

let test_image_specialization_sizes () =
  (* Modularity pays: hello image is a fraction of nginx's. *)
  let hello =
    ok (Img.build (ok (Cfg.make ~app:"app-hello" ~libc:Cfg.Nolibc ~sched:Cfg.None_ ())))
  in
  let nginx = ok (Img.build (ok (Cfg.make ~app:"app-nginx" ~net:Cfg.Vhost_net ()))) in
  Alcotest.(check bool) "hello much smaller" true
    (Img.size_bytes hello * 4 < Img.size_bytes nginx);
  Alcotest.(check bool) "hello excludes lwip" false (List.mem "lwip" (Img.libs hello));
  Alcotest.(check bool) "nginx includes lwip" true (List.mem "lwip" (Img.libs nginx))

let test_vm_boot_hello_all_vmms () =
  List.iter
    (fun vmm ->
      let cfg = ok (Cfg.make ~app:"app-hello" ~libc:Cfg.Nolibc ~sched:Cfg.None_ ~alloc:Cfg.Bootalloc ()) in
      let env = ok (Vm.boot ~vmm cfg) in
      let bd = env.Vm.breakdown in
      (* Fig 10: guest boot is tens-to-hundreds of microseconds; total is
         dominated by the VMM. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s guest boot < 1ms (%.1fus)" (Vmm.name vmm) (bd.Vmm.guest_ns /. 1e3))
        true (bd.Vmm.guest_ns < 1e6);
      Alcotest.(check bool) "vmm dominates" true (bd.Vmm.vmm_startup_ns > bd.Vmm.guest_ns))
    [ Vmm.Qemu; Vmm.Qemu_microvm; Vmm.Firecracker; Vmm.Solo5 ]

let test_vm_boot_requires_wire () =
  let cfg = ok (Cfg.make ~app:"app-nginx" ~net:Cfg.Vhost_net ()) in
  match Vm.boot ~vmm:Vmm.Qemu cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "net without wire accepted"

let test_vm_components_match_config () =
  let cfg = ok (Cfg.make ~app:"app-sqlite" ~fs:Cfg.Ramfs ~alloc:Cfg.Buddy ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu cfg) in
  Alcotest.(check string) "allocator" "buddy" env.Vm.alloc.Ukalloc.Alloc.name;
  Alcotest.(check bool) "vfs mounted" true (env.Vm.vfs <> None);
  Alcotest.(check bool) "no network" true (env.Vm.dev = None);
  Alcotest.(check bool) "scheduler present" true (env.Vm.sched <> None);
  (* ukdebug boot trace points fired once per constructor. *)
  Alcotest.(check int) "boot trace points" (List.length env.Vm.report.Ukboot.Boot.phases)
    (Ukdebug.Debug.Trace.count env.Vm.debug "boot.ctor")

let test_vm_boot_allocator_order () =
  (* Fig 14: bootalloc boots fastest, buddy slowest; measured through the
     whole VM boot path with a 1GB heap as in the paper's nginx runs. *)
  let boot_ns alloc =
    let cfg = ok (Cfg.make ~app:"app-nginx" ~alloc ~mem_mb:1024 ()) in
    let env = ok (Vm.boot ~vmm:Vmm.Qemu cfg) in
    env.Vm.breakdown.Vmm.guest_ns
  in
  let boota = boot_ns Cfg.Bootalloc in
  let tlsf = boot_ns Cfg.Tlsf in
  let mim = boot_ns Cfg.Mimalloc in
  let buddy = boot_ns Cfg.Buddy in
  Alcotest.(check bool)
    (Printf.sprintf "bootalloc %.2fms <= tlsf %.2fms" (boota /. 1e6) (tlsf /. 1e6))
    true (boota <= tlsf);
  Alcotest.(check bool) "tlsf < mimalloc" true (tlsf < mim);
  Alcotest.(check bool) "mimalloc < buddy" true (mim < buddy);
  Alcotest.(check bool)
    (Printf.sprintf "buddy ~3ms (%.2fms)" (buddy /. 1e6))
    true
    (buddy > 2e6 && buddy < 6e6)

let test_vm_9pfs_mount () =
  let host_clock = Uksim.Clock.create () in
  let host = Ukvfs.Ramfs.create ~clock:host_clock () in
  (match host.Ukvfs.Fs.open_file "/greeting" ~create:true with
  | Ok h ->
      ignore (host.Ukvfs.Fs.write h ~off:0 (Bytes.of_string "hi from host"));
      host.Ukvfs.Fs.close h
  | Error _ -> Alcotest.fail "host file");
  let cfg = ok (Cfg.make ~app:"app-sqlite" ~fs:Cfg.Ninep ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu ~host_share:host cfg) in
  let vfs = Option.get env.Vm.vfs in
  let fd = Result.get_ok (Ukvfs.Vfs.open_file vfs "/greeting" ()) in
  (match Ukvfs.Vfs.pread vfs fd ~off:0 ~len:64 with
  | Ok data -> Alcotest.(check string) "9p read" "hi from host" (Bytes.to_string data)
  | Error _ -> Alcotest.fail "read over 9p");
  ignore (Ukvfs.Vfs.close vfs fd)

let test_vm_run_to_completion () =
  (* The paper's RPC-style scenario: no scheduler, run main inline. *)
  let cfg = ok (Cfg.make ~app:"app-hello" ~sched:Cfg.None_ ~libc:Cfg.Nolibc ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Solo5 cfg) in
  let line = ref "" in
  Vm.run_main env (fun e -> line := Ukapps.Hello.main ~clock:e.Vm.clock);
  Alcotest.(check string) "main ran inline" "Hello world!" !line

let test_end_to_end_nginx_wrk () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let cfg = ok (Cfg.make ~app:"app-nginx" ~net:Cfg.Vhost_net ~alloc:Cfg.Mimalloc ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu ~clock ~engine ~wire:wa cfg) in
  let sched = Option.get env.Vm.sched in
  let _httpd =
    Ukapps.Httpd.create ~clock ~sched ~stack:(Option.get env.Vm.stack) ~alloc:env.Vm.alloc
      (Ukapps.Httpd.In_memory [ ("/index.html", Ukapps.Httpd.default_page) ])
  in
  let cdev =
    Uknetdev.Virtio_net.create ~clock ~engine ~backend:Uknetdev.Virtio_net.Vhost_net ~wire:wb ()
  in
  let cstack =
    Uknetstack.Stack.create ~clock ~engine ~sched ~dev:cdev
      { Uknetstack.Stack.mac = A.Mac.of_int 0xc11e47; ip = A.Ipv4.of_string "172.44.0.3";
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let r =
    Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock ~sched ~stack:cstack
      ~server:(A.Ipv4.of_string "172.44.0.2", 80) ~connections:8 ~requests:400
      (Ukapps.Httpd.client ())
  in
  Alcotest.(check int) "no errors" 0 r.Ukapps.Load.errors;
  Alcotest.(check int) "all requests served" 400 r.Ukapps.Load.requests;
  Alcotest.(check bool) "throughput sane" true (r.Ukapps.Load.rate_per_sec > 10_000.0)

let test_end_to_end_redis_bench () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let cfg = ok (Cfg.make ~app:"app-redis" ~net:Cfg.Vhost_net ~alloc:Cfg.Tlsf ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu ~clock ~engine ~wire:wa cfg) in
  let sched = Option.get env.Vm.sched in
  let server =
    Ukapps.Resp_store.create ~clock ~sched ~stack:(Option.get env.Vm.stack) ~alloc:env.Vm.alloc ()
  in
  let cdev =
    Uknetdev.Virtio_net.create ~clock ~engine ~backend:Uknetdev.Virtio_net.Vhost_net ~wire:wb ()
  in
  let cstack =
    Uknetstack.Stack.create ~clock ~engine ~sched ~dev:cdev
      { Uknetstack.Stack.mac = A.Mac.of_int 0xbe7c4; ip = A.Ipv4.of_string "172.44.0.3";
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let r =
    Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock ~sched ~stack:cstack
      ~server:(A.Ipv4.of_string "172.44.0.2", 6379) ~connections:6 ~pipeline:8 ~requests:600
      (Ukapps.Resp_store.client Ukapps.Resp_store.Set)
  in
  Alcotest.(check int) "no errors" 0 r.Ukapps.Load.errors;
  Alcotest.(check bool) "server stored keys" true (Ukapps.Resp_store.dbsize server > 0)

let test_vm_sanitized_build () =
  (* §7: the ASAN option wraps the configured allocator. *)
  let cfg = ok (Cfg.make ~app:"app-redis" ~alloc:Cfg.Tlsf ~asan:true ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu cfg) in
  Alcotest.(check string) "wrapped allocator" "tlsf+asan" env.Vm.alloc.Ukalloc.Alloc.name;
  Alcotest.(check bool) "sanitizer handle exposed" true (env.Vm.asan <> None);
  let addr = Option.get (env.Vm.alloc.Ukalloc.Alloc.malloc 64) in
  env.Vm.alloc.Ukalloc.Alloc.free addr;
  match env.Vm.alloc.Ukalloc.Alloc.free addr with
  | () -> Alcotest.fail "double free not caught in sanitized build"
  | exception Ukalloc.Asan.Asan (Ukalloc.Asan.Double_free _) -> ()

let test_vm_mpk_build () =
  let cfg = ok (Cfg.make ~app:"app-hello" ~mpk:true ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu cfg) in
  match env.Vm.mpk with
  | None -> Alcotest.fail "mpk requested but absent"
  | Some m ->
      let key = Result.get_ok (Ukmpk.Mpk.alloc_key m ~name:"appdata" ()) in
      Ukmpk.Mpk.bind_range m key ~base:0x80000 ~len:4096;
      (match Ukmpk.Mpk.load m 0x80000 with
      | () -> Alcotest.fail "sealed compartment readable"
      | exception Ukmpk.Mpk.Protection_fault _ -> ())

(* --- ukos profiles ----------------------------------------------------------- *)

let test_profiles_anchor_boot_times () =
  (* §5.1's published baseline boot times. *)
  let boot name =
    match Ukos.Profiles.find name with
    | Some p -> Option.get p.Ukos.Profiles.boot_ns
    | None -> Alcotest.failf "missing profile %s" name
  in
  Alcotest.(check (float 1.0)) "mirage 1.5ms" 1.5e6 (boot "mirageos");
  Alcotest.(check (float 1.0)) "osv 4.5ms" 4.5e6 (boot "osv");
  Alcotest.(check (float 1.0)) "lupine 70ms" 7.0e7 (boot "lupine");
  Alcotest.(check (float 1.0)) "alpine 330ms" 3.3e8 (boot "alpine-fc");
  Alcotest.(check bool) "rump 14-15ms" true
    (boot "rump" >= 1.4e7 && boot "rump" <= 1.5e7)

let test_profiles_request_factors () =
  (* §5.3 relationships, encoded as per-request cost factors > 1. *)
  List.iter
    (fun (os, app) ->
      match Ukos.Profiles.find os with
      | None -> Alcotest.failf "missing %s" os
      | Some p -> (
          match Ukos.Profiles.request_cost_factor p ~app with
          | Some f ->
              if f <= 1.0 then Alcotest.failf "%s/%s: factor %.2f <= 1" os app f
          | None -> Alcotest.failf "%s/%s: missing factor" os app))
    [ ("linux-native", "nginx"); ("linux-vm", "redis"); ("docker", "nginx"); ("osv", "redis");
      ("lupine", "nginx") ];
  (* HermiTux does not support nginx. *)
  match Ukos.Profiles.find "hermitux" with
  | Some p ->
      Alcotest.(check (option (float 0.1))) "hermitux lacks nginx" None
        (Ukos.Profiles.request_cost_factor p ~app:"nginx")
  | None -> Alcotest.fail "hermitux profile"

let suite =
  [
    Alcotest.test_case "config defaults" `Quick test_config_defaults;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config kconfig rendering" `Quick test_config_kconfig_rendering;
    Alcotest.test_case "image specialization (Figs 2/3)" `Quick test_image_specialization_sizes;
    Alcotest.test_case "boot on all VMMs (Fig 10)" `Quick test_vm_boot_hello_all_vmms;
    Alcotest.test_case "net requires wire" `Quick test_vm_boot_requires_wire;
    Alcotest.test_case "components match config" `Quick test_vm_components_match_config;
    Alcotest.test_case "allocator boot order (Fig 14)" `Quick test_vm_boot_allocator_order;
    Alcotest.test_case "9pfs root over virtio (Fig 20 setup)" `Quick test_vm_9pfs_mount;
    Alcotest.test_case "run-to-completion main" `Quick test_vm_run_to_completion;
    Alcotest.test_case "end-to-end: nginx + wrk" `Quick test_end_to_end_nginx_wrk;
    Alcotest.test_case "end-to-end: redis + bench" `Quick test_end_to_end_redis_bench;
    Alcotest.test_case "sanitized build (§7)" `Quick test_vm_sanitized_build;
    Alcotest.test_case "mpk build (§7)" `Quick test_vm_mpk_build;
    Alcotest.test_case "ukos boot anchors (§5.1)" `Quick test_profiles_anchor_boot_times;
    Alcotest.test_case "ukos request factors (§5.3)" `Quick test_profiles_request_factors;
  ]
