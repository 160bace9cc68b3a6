(* A Redis-like key-value unikernel under redis-benchmark-style load,
   swapping memory allocators to show the paper's Fig 18 effect.

   Run with: dune exec examples/keyvalue.exe *)

module Cfg = Unikraft.Config
module Vm = Unikraft.Vm
module A = Uknetstack.Addr

let ok = function Ok v -> v | Error e -> failwith e

let run_with ~alloc workload =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let cfg = ok (Cfg.make ~app:"app-redis" ~net:Cfg.Vhost_net ~alloc ~mem_mb:64 ()) in
  let env = ok (Vm.boot ~vmm:Ukplat.Vmm.Qemu ~clock ~engine ~wire:wa cfg) in
  let sched = Option.get env.Vm.sched in
  let server =
    Ukapps.Resp_store.create ~clock ~sched ~stack:(Option.get env.Vm.stack) ~alloc:env.Vm.alloc
      ()
  in
  let cdev =
    Uknetdev.Virtio_net.create ~clock ~engine ~backend:Uknetdev.Virtio_net.Vhost_net ~wire:wb ()
  in
  let cstack =
    Uknetstack.Stack.create ~clock ~engine ~sched ~dev:cdev
      { Uknetstack.Stack.mac = A.Mac.of_int 0x2; ip = A.Ipv4.of_string "172.44.0.3";
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  Uknetstack.Stack.start cstack;
  let r =
    Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock ~sched ~stack:cstack
      ~server:(A.Ipv4.of_string "172.44.0.2", 6379) ~connections:30 ~pipeline:16
      ~requests:20_000 (Ukapps.Resp_store.client workload)
  in
  (r.Ukapps.Load.rate_per_sec, Ukapps.Resp_store.stats server)

let () =
  Format.printf "redis-benchmark: 30 connections, pipeline 16, 20k requests@.@.";
  Format.printf "%-12s %14s %14s@." "allocator" "GET (req/s)" "SET (req/s)";
  List.iter
    (fun alloc ->
      let get, _ = run_with ~alloc Ukapps.Resp_store.Get in
      let set, st = run_with ~alloc Ukapps.Resp_store.Set in
      ignore st;
      Format.printf "%-12s %14.0f %14.0f@." (Cfg.alloc_backend_name alloc) get set)
    [ Cfg.Tlsf; Cfg.Mimalloc; Cfg.Tinyalloc; Cfg.Buddy ];
  Format.printf "@.=> as in the paper's Fig 18: no allocator wins everywhere;@.";
  Format.printf "   pick per workload via the ukalloc API (one Kconfig line).@."
