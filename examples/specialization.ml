(* The specialization ladder of the paper's §6: the same UDP key-value
   service built three ways —
     1. through the socket API over the lwip stack (easy, slower),
     2. against the raw uknetdev API in mixed polling mode (fast),
   and the same story for storage: open() through vfscore vs. direct SHFS.

   Run with: dune exec examples/specialization.exe *)

module Cfg = Unikraft.Config
module Vm = Unikraft.Vm
module A = Uknetstack.Addr
module Vn = Uknetdev.Virtio_net

let ok = function Ok v -> v | Error e -> failwith e

let kv_via_sockets () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let cfg = ok (Cfg.make ~app:"app-udpkv" ~net:Cfg.Vhost_net ~alloc:Cfg.Tlsf ()) in
  let env = ok (Vm.boot ~vmm:Ukplat.Vmm.Qemu ~clock ~engine ~wire:wa cfg) in
  let sched = Option.get env.Vm.sched in
  let store = Ukapps.Udp_kv.create_store ~clock ~alloc:env.Vm.alloc in
  for i = 0 to 1023 do
    Ukapps.Udp_kv.store_set store (Printf.sprintf "k%04d" i) "value"
  done;
  Ukapps.Udp_kv.serve_sockets ~sched ~stack:(Option.get env.Vm.stack) ~store ();
  let cdev = Vn.create ~clock ~engine ~backend:Vn.Vhost_net ~wire:wb () in
  let cstack =
    Uknetstack.Stack.create ~clock ~engine ~sched ~dev:cdev
      { Uknetstack.Stack.mac = A.Mac.of_int 0x2; ip = A.Ipv4.of_string "172.44.0.3";
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let r =
    Ukapps.Udp_kv.Client.run_sockets ~clock ~sched ~stack:cstack
      ~server:(A.Ipv4.of_string "172.44.0.2", 5000) ~requests:10_000 ()
  in
  r.Ukapps.Udp_kv.Client.rate_per_sec

let kv_via_uknetdev () =
  (* Stack and scheduler removed (one Kconfig change); the app owns the
     driver: polling loop, inline header handling, burst tx. *)
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let sdev = Vn.create ~clock ~engine ~backend:Vn.Vhost_user ~wire:wa () in
  let cdev = Vn.create ~clock ~engine ~backend:Vn.Vhost_user ~wire:wb () in
  let alloc = Ukalloc.Tlsf.create ~clock ~base:(1 lsl 26) ~len:(1 lsl 26) in
  let store = Ukapps.Udp_kv.create_store ~clock ~alloc in
  for i = 0 to 1023 do
    Ukapps.Udp_kv.store_set store (Printf.sprintf "k%04d" i) "value"
  done;
  let sip = A.Ipv4.of_string "172.44.0.2" and cip = A.Ipv4.of_string "172.44.0.3" in
  let smac = A.Mac.of_int 0x1 and cmac = A.Mac.of_int 0x2 in
  Ukapps.Udp_kv.serve_netdev ~clock ~sched ~dev:sdev ~store ~mac:smac ~ip:sip ();
  let r =
    Ukapps.Udp_kv.Client.run_netdev ~clock ~sched ~dev:cdev ~mac:cmac ~ip:cip ~server_mac:smac
      ~server:(sip, 5000) ~requests:30_000 ()
  in
  r.Ukapps.Udp_kv.Client.rate_per_sec

let storage_ladder () =
  let clock = Uksim.Clock.create () in
  (* vfscore + ramfs path. *)
  let vfs = Ukvfs.Vfs.create ~clock in
  ignore (Ukvfs.Vfs.mount vfs ~at:"/" (Ukvfs.Ramfs.create ~clock ()));
  let wc_vfs = Ukapps.Webcache.create ~clock (Ukapps.Webcache.Vfs_backed (vfs, "/")) in
  ok (Ukapps.Webcache.populate wc_vfs ~n_files:200 ());
  (* SHFS direct path. *)
  let shfs = Ukvfs.Shfs.create ~clock in
  let wc_shfs = Ukapps.Webcache.create ~clock (Ukapps.Webcache.Shfs_backed shfs) in
  ok (Ukapps.Webcache.populate wc_shfs ~n_files:200 ());
  let v = Ukapps.Webcache.measure_open wc_vfs in
  let s = Ukapps.Webcache.measure_open wc_shfs in
  (v, s)

let () =
  Format.printf "network specialization (UDP KV store, paper Table 4):@.";
  let sockets = kv_via_sockets () in
  Format.printf "  sockets over lwip:       %8.0f req/s@." sockets;
  let netdev = kv_via_uknetdev () in
  Format.printf "  raw uknetdev (polling):  %8.0f req/s  (%.1fx)@." netdev (netdev /. sockets);
  Format.printf "@.storage specialization (open() latency, paper Fig 22):@.";
  let v, s = storage_ladder () in
  Format.printf "  vfscore + ramfs: hit %5.0f ns, miss %5.0f ns@." v.Ukapps.Webcache.hit_ns
    v.Ukapps.Webcache.miss_ns;
  Format.printf "  SHFS direct:     hit %5.0f ns, miss %5.0f ns  (%.1fx faster)@."
    s.Ukapps.Webcache.hit_ns s.Ukapps.Webcache.miss_ns
    (v.Ukapps.Webcache.hit_ns /. s.Ukapps.Webcache.hit_ns);
  Format.printf
    "@.=> the paper's thesis: pick the API level per component and win the@.   specialization factor without rewriting the OS.@."
