(* Shared plumbing for the experiment harness. *)

module Cfg = Unikraft.Config
module Vm = Unikraft.Vm
module Vmm = Ukplat.Vmm
module A = Uknetstack.Addr

let section id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let row fmt = Printf.printf fmt

let ms ns = ns /. 1e6
let us ns = ns /. 1e3

let fast = Bench.fast
let scaled = Bench.scaled

let ok = function
  | Ok v -> v
  | Error e -> failwith ("experiment setup failed: " ^ e)

(* Replay fingerprints (Bench.replay) of the result records several
   experiments share: every field, floats exact. The patterns name every
   field, so a field added to a record fails the build here until the
   fingerprint covers it. *)
let load_fingerprint
    { Ukapps.Load.requests; elapsed_ns; rate_per_sec; mean_us; p50_us; p99_us; errors } =
  Bench.
    [
      fp_i "requests" requests; fp_f "elapsed_ns" elapsed_ns; fp_f "rate_per_sec" rate_per_sec;
      fp_f "mean_us" mean_us; fp_f "p50_us" p50_us; fp_f "p99_us" p99_us; fp_i "errors" errors;
    ]

let fleet_fingerprint
    { Ukfleet.Fleet.offered; completed; shed; lost; redispatched; mean_us; p50_us; p99_us;
      max_us; slo_violation_ns; cold_boots; clones; warm_hits; crashes; restarts; retired;
      peak_instances; final_ready; elapsed_ns; trace_hash } =
  Bench.
    [
      fp_i "offered" offered; fp_i "completed" completed; fp_i "shed" shed; fp_i "lost" lost;
      fp_i "redispatched" redispatched; fp_f "mean_us" mean_us; fp_f "p50_us" p50_us;
      fp_f "p99_us" p99_us; fp_f "max_us" max_us; fp_f "slo_violation_ns" slo_violation_ns;
      fp_i "cold_boots" cold_boots; fp_i "clones" clones; fp_i "warm_hits" warm_hits;
      fp_i "crashes" crashes; fp_i "restarts" restarts; fp_i "retired" retired;
      fp_i "peak_instances" peak_instances; fp_i "final_ready" final_ready;
      fp_f "elapsed_ns" elapsed_ns; fp_i "trace_hash" trace_hash;
    ]

(* A served Unikraft VM + client-side stack over a virtio wire, ready for
   load generation. Both sides share one timeline; client-side costs are
   kept small so the guest remains the bottleneck (the paper pins VM, VMM
   and client to distinct cores — see DESIGN.md for the substitution
   note). *)
type served = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t;
  env : Vm.env;
  client_stack : Uknetstack.Stack.t;
  server_ip : A.Ipv4.t;
}

let serve_vm ?(alloc = Cfg.Mimalloc) ?(net = Cfg.Vhost_net) ~app () =
  (* One VM boot = one trial: drop the previous boot's instance sources
     so metrics windows never mix dead components with live ones. *)
  Bench.trial ();
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  (* Feed the uktrace profiling sampler from the event loop; a no-op
     when the default tracer is disabled. *)
  Uksim.Engine.set_observer engine
    (Some (fun cycles -> Uktrace.Tracer.attribute Uktrace.Tracer.default ~core:0 ~cycles));
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let cfg = ok (Cfg.make ~app ~net ~alloc ~mem_mb:64 ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu ~clock ~engine ~wire:wa cfg) in
  let sched = Option.get env.Vm.sched in
  let backend =
    match net with
    | Cfg.Vhost_user -> Uknetdev.Virtio_net.Vhost_user
    | Cfg.Vhost_net | Cfg.No_net -> Uknetdev.Virtio_net.Vhost_net
  in
  let cdev = Uknetdev.Virtio_net.create ~clock ~engine ~backend ~wire:wb () in
  let client_stack =
    Uknetstack.Stack.create ~clock ~engine ~sched ~dev:cdev
      {
        Uknetstack.Stack.mac = A.Mac.of_int 0xc11e47;
        ip = A.Ipv4.of_string "172.44.0.3";
        netmask = A.Ipv4.of_string "255.255.255.0";
        gateway = None;
      }
  in
  { clock; engine; sched; env; client_stack; server_ip = A.Ipv4.of_string "172.44.0.2" }

let kreq v = v /. 1000.0

let alloc_name = Cfg.alloc_backend_name

let all_allocs = [ Cfg.Bootalloc; Cfg.Tlsf; Cfg.Tinyalloc; Cfg.Mimalloc; Cfg.Buddy ]
