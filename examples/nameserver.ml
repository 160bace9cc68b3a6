(* An authoritative DNS server unikernel — the dnsmasq/bind class of
   workload from the paper's syscall study (§4.1), served from a
   sanitized (+asan) build to show §7's security knobs in use.

   Run with: dune exec examples/nameserver.exe *)

module Cfg = Unikraft.Config
module Vm = Unikraft.Vm
module Dns = Ukapps.Dns
module A = Uknetstack.Addr
module S = Uknetstack.Stack

let ok = function Ok v -> v | Error e -> failwith e

let () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let cfg =
    ok
      (Cfg.make ~app:"app-udpkv" (* UDP service profile *) ~net:Cfg.Vhost_net ~alloc:Cfg.Tlsf
         ~asan:true ~mem_mb:16 ())
  in
  let env = ok (Vm.boot ~vmm:Ukplat.Vmm.Qemu ~clock ~engine ~wire:wa cfg) in
  let sched = Option.get env.Vm.sched in
  Format.printf "nameserver booted (%s heap) in %.2f ms guest time@."
    env.Vm.alloc.Ukalloc.Alloc.name
    (env.Vm.breakdown.Ukplat.Vmm.guest_ns /. 1e6);

  let srv = Dns.Server.create ~clock ~sched ~stack:(Option.get env.Vm.stack) () in
  Dns.Server.add_a srv ~name:"www.uk.test" "172.44.0.10";
  Dns.Server.add_a srv ~name:"www.uk.test" "172.44.0.11" (* round-robin pool *);
  Dns.Server.add_a srv ~name:"db.uk.test" "172.44.0.20";
  Dns.Server.add_record srv ~name:"cache.uk.test"
    { Dns.name = "cache.uk.test"; rtype = Dns.Cname; ttl = 60; rdata = Dns.Name "www.uk.test" };
  Dns.Server.add_record srv ~name:"uk.test"
    { Dns.name = "uk.test"; rtype = Dns.Txt; ttl = 600; rdata = Dns.Text "v=ukraft1" };

  (* Client machine. *)
  let cdev =
    Uknetdev.Virtio_net.create ~clock ~engine ~backend:Uknetdev.Virtio_net.Vhost_net ~wire:wb ()
  in
  let cstack =
    S.create ~clock ~engine ~sched ~dev:cdev
      { S.mac = A.Mac.of_int 0x2; ip = A.Ipv4.of_string "172.44.0.3";
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in

  let resolve name qtype =
    match Dns.Client.lookup ~clock ~stack:cstack ~server:(A.Ipv4.of_string "172.44.0.2") ~qtype name with
    | Ok m ->
        let rendered =
          match m.Dns.rcode with
          | Dns.Nx_domain -> "NXDOMAIN"
          | _ ->
              String.concat ", "
                (List.map
                   (fun (r : Dns.rr) ->
                     match r.Dns.rdata with
                     | Dns.Ipv4_addr ip -> A.Ipv4.to_string ip
                     | Dns.Name n -> "-> " ^ n
                     | Dns.Text t -> Printf.sprintf "%S" t
                     | Dns.Ipv6_addr s -> s)
                   m.Dns.answers)
        in
        Format.printf "  %-16s %s@." name rendered
    | Error e -> Format.printf "  %-16s error: %s@." name e
  in
  ignore
    (Uksched.Sched.spawn sched ~name:"dig" (fun () ->
         Format.printf "queries over the virtio wire:@.";
         resolve "www.uk.test" Dns.A;
         resolve "cache.uk.test" Dns.A;
         resolve "uk.test" Dns.Txt;
         resolve "missing.uk.test" Dns.A));
  Uksched.Sched.run sched;

  Format.printf "served %d queries (%d NXDOMAIN); heap checks so far: %d@."
    (Dns.Server.queries_served srv)
    (Dns.Server.nxdomain_count srv)
    (match env.Vm.asan with Some a -> Ukalloc.Asan.checks_performed a | None -> 0);

  (* Measure sustained resolution rate. *)
  let n = 5_000 in
  let t0 = Uksim.Clock.ns clock in
  ignore
    (Uksched.Sched.spawn sched ~name:"load" (fun () ->
         for i = 1 to n do
           ignore
             (Dns.Client.lookup ~clock ~stack:cstack ~server:(A.Ipv4.of_string "172.44.0.2")
                (if i land 7 = 0 then "db.uk.test" else "www.uk.test"))
         done));
  Uksched.Sched.run sched;
  let elapsed = Uksim.Clock.ns clock -. t0 in
  Format.printf "%d sequential lookups: %.0f queries/s (%.1f us mean latency)@." n
    (Uksim.Stats.throughput_per_sec ~events:n ~elapsed_ns:elapsed)
    (elapsed /. float_of_int n /. 1e3)
