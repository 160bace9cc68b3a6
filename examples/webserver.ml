(* A static web server unikernel (the paper's nginx scenario): boot a
   networked VM, serve files from a ramfs through vfscore, and load-test
   it with a wrk-like client over a virtio wire.

   Run with: dune exec examples/webserver.exe *)

module Cfg = Unikraft.Config
module Vm = Unikraft.Vm
module A = Uknetstack.Addr

let ok = function Ok v -> v | Error e -> failwith e

let () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wire_guest, wire_client = Uknetdev.Wire.create_pair ~engine () in

  (* Server VM: nginx-class configuration — lwip over virtio-net,
     vfscore+ramfs for content, mimalloc as the app allocator. *)
  let cfg =
    ok
      (Cfg.make ~app:"app-nginx" ~net:Cfg.Vhost_net ~fs:Cfg.Ramfs ~alloc:Cfg.Mimalloc
         ~mem_mb:64 ())
  in
  let env = ok (Vm.boot ~vmm:Ukplat.Vmm.Qemu ~clock ~engine ~wire:wire_guest cfg) in
  let sched = Option.get env.Vm.sched in
  Format.printf "server booted: guest %.2f ms on %s@."
    (env.Vm.breakdown.Ukplat.Vmm.guest_ns /. 1e6)
    (Ukplat.Vmm.name env.Vm.breakdown.Ukplat.Vmm.vmm);

  (* Populate the root filesystem with content. *)
  let vfs = Option.get env.Vm.vfs in
  let put path body =
    let fd = Result.get_ok (Ukvfs.Vfs.open_file vfs path ~create:true ()) in
    ignore (Ukvfs.Vfs.pwrite vfs fd ~off:0 (Bytes.of_string body));
    ignore (Ukvfs.Vfs.close vfs fd)
  in
  put "/index.html" Ukapps.Httpd.default_page;
  put "/about.html" "<html><body>ukraft example server</body></html>";

  let httpd =
    Ukapps.Httpd.create ~clock ~sched ~stack:(Option.get env.Vm.stack) ~alloc:env.Vm.alloc
      (Ukapps.Httpd.Via_vfs vfs)
  in

  (* Client machine: its own stack behind the other wire endpoint. *)
  let cdev =
    Uknetdev.Virtio_net.create ~clock ~engine ~backend:Uknetdev.Virtio_net.Vhost_net
      ~wire:wire_client ()
  in
  let cstack =
    Uknetstack.Stack.create ~clock ~engine ~sched ~dev:cdev
      { Uknetstack.Stack.mac = A.Mac.of_int 0x2; ip = A.Ipv4.of_string "172.44.0.3";
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in

  (* Load test: 30 connections fetching the 612-byte page. *)
  let r =
    Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock ~sched ~stack:cstack
      ~server:(A.Ipv4.of_string "172.44.0.2", 80) ~connections:30 ~requests:20_000
      (Ukapps.Httpd.client ())
  in
  Format.printf "wrk: %.0f req/s, mean latency %.1f us, p99 %.1f us, errors %d@."
    r.Ukapps.Load.rate_per_sec r.Ukapps.Load.mean_us r.Ukapps.Load.p99_us r.Ukapps.Load.errors;
  let count = Uktrace.Source.count in
  let hs = Ukapps.Httpd.source httpd in
  Format.printf "server: %d requests, %d x 404, %a sent@." (count hs "requests")
    (count hs "errors_404") Uksim.Units.pp_bytes (count hs "bytes_sent");
  let ss = Uknetstack.Stack.source (Option.get env.Vm.stack) in
  Format.printf "server stack: %d frames in, %d tcp segments, %d dropped@."
    (count ss "rx_eth") (count ss "rx_tcp") (count ss "rx_drop");
  let a = env.Vm.alloc.Ukalloc.Alloc.source in
  Format.printf "allocator (%s): %d allocs / %d frees, peak %a@."
    env.Vm.alloc.Ukalloc.Alloc.name (count a "allocs") (count a "frees")
    Uksim.Units.pp_bytes (int_of_float (Uktrace.Source.level a "peak_bytes"))
