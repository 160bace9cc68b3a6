(* Application-performance experiments: syscall costs, Redis/nginx
   throughput vs other OSes, allocator sweeps, SQLite runs (Table 1;
   Figs 12, 13, 15, 16, 17, 18). *)

open Common
module Shim = Uksyscall.Shim

let tab01 =
  {
    Bench.id = "tab01";
    group = "perf";
    descr = "cost of binary compatibility / syscalls (Table 1)";
    run =
      (fun () ->
        let n = 10_000 in
        let measure mode =
          let clock = Uksim.Clock.create () in
          let shim = Shim.create ~clock ~mode in
          Shim.register shim ~sysno:39 (fun _ -> Ok 0);
          let s = Uksim.Clock.start clock in
          for _ = 1 to n do
            ignore (Shim.call shim ~sysno:39 [||])
          done;
          let cycles = float_of_int (Uksim.Clock.elapsed_cycles clock s) /. float_of_int n in
          (cycles, cycles /. Uksim.Clock.ghz)
        in
        row "%-16s %-28s %8s %8s\n" "platform" "routine call" "#cycles" "nsecs";
        let p (plat, what, mode) =
          let c, ns = measure mode in
          row "%-16s %-28s %8.1f %8.2f\n" plat what c ns
        in
        List.iter p
          [
            ("Linux/KVM", "System call", Shim.Linux_vm);
            ("Linux/KVM", "System call (no mitig.)", Shim.Linux_vm_nomitig);
            ("Unikraft/KVM", "System call (bin compat)", Shim.Binary_compat);
            ("Both", "Function call", Shim.Native_link);
          ];
        row "=> paper: 222.0 / 154.0 / 84.0 / 4.0 cycles\n");
  }

(* Shared Redis measurement. *)
let redis_rate ?(alloc = Cfg.Mimalloc) ?(requests = 100_000) workload =
  let s = serve_vm ~alloc ~app:"app-redis" () in
  let _server =
    Ukapps.Resp_store.create ~clock:s.clock ~sched:s.sched ~stack:(Option.get s.env.Vm.stack)
      ~alloc:s.env.Vm.alloc ()
  in
  let wl = match workload with Ukapps.Resp_store.Get -> "get" | _ -> "set" in
  let r =
    Bench.phase (Printf.sprintf "redis_%s_%s" (alloc_name alloc) wl) (fun () ->
        Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock:s.clock ~sched:s.sched
          ~stack:s.client_stack ~server:(s.server_ip, 6379) ~connections:30 ~pipeline:16
          ~requests:(scaled requests) (Ukapps.Resp_store.client workload))
  in
  r.Ukapps.Load.rate_per_sec

let nginx_rate ?(alloc = Cfg.Mimalloc) ?(requests = 30_000) () =
  let s = serve_vm ~alloc ~app:"app-nginx" () in
  let _httpd =
    Ukapps.Httpd.create ~clock:s.clock ~sched:s.sched ~stack:(Option.get s.env.Vm.stack)
      ~alloc:s.env.Vm.alloc
      (Ukapps.Httpd.In_memory [ ("/index.html", Ukapps.Httpd.default_page) ])
  in
  let r =
    Bench.phase ("wrk_" ^ alloc_name alloc) (fun () ->
        Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock:s.clock ~sched:s.sched
          ~stack:s.client_stack ~server:(s.server_ip, 80) ~connections:30
          ~requests:(scaled requests) (Ukapps.Httpd.client ()))
  in
  r.Ukapps.Load.rate_per_sec

(* Baseline OS rate derived from the measured Unikraft rate and the
   profile's relative per-request path length (see ukos/profiles.mli). *)
let baseline_rate uk_rate profile app =
  Option.map (fun f -> uk_rate /. f) (Ukos.Profiles.request_cost_factor profile ~app)

let fig12 =
  {
    Bench.id = "fig12";
    group = "perf";
    descr = "Redis throughput (30 conns, 100k reqs, pipelining 16)";
    run =
      (fun () ->
        let uk = redis_rate Ukapps.Resp_store.Get in
        row "%-18s %14s %14s\n" "system" "qemu/kvm(k/s)" "firecracker(k/s)";
        row "%-18s %14.0f %14.0f\n" "unikraft" (kreq uk)
          (kreq (uk *. Ukos.Profiles.firecracker_penalty));
        List.iter
          (fun p ->
            match baseline_rate uk p "redis" with
            | Some r ->
                row "%-18s %14.0f %14.0f\n" p.Ukos.Profiles.os_name (kreq r)
                  (kreq (r *. Ukos.Profiles.firecracker_penalty))
            | None -> row "%-18s %14s %14s\n" p.Ukos.Profiles.os_name "-" "-")
          Ukos.Profiles.all;
        row "=> paper: Unikraft 1.7-2.7x the Linux VM, ~30-80%% over Docker, ~50%% over Lupine\n");
  }

let fig13 =
  {
    Bench.id = "fig13";
    group = "perf";
    descr = "nginx throughput, wrk, static 612B page (+Mirage HTTP-reply)";
    run =
      (fun () ->
        let uk = nginx_rate () in
        row "%-18s %14s\n" "system" "req/s (k)";
        row "%-18s %14.0f\n" "unikraft" (kreq uk);
        List.iter
          (fun p ->
            match baseline_rate uk p "nginx" with
            | Some r -> row "%-18s %14.0f\n" p.Ukos.Profiles.os_name (kreq r)
            | None -> row "%-18s %14s\n" p.Ukos.Profiles.os_name "-")
          Ukos.Profiles.all);
  }

let fig15 =
  {
    Bench.id = "fig15";
    group = "perf";
    descr = "nginx throughput per allocator";
    run =
      (fun () ->
        row "%-12s %12s\n" "allocator" "req/s (k)";
        List.iter
          (fun alloc ->
            let r = nginx_rate ~alloc ~requests:20_000 () in
            row "%-12s %12.0f\n" (alloc_name alloc) (kreq r))
          all_allocs;
        row "=> paper: buddy/tlsf/mimalloc comparable; tinyalloc ~30%% behind\n");
  }

let sqlite_insert_time ~alloc ~queries ?(per_stmt_overhead = 0) ?journal () =
  let cfg = ok (Cfg.make ~app:"app-sqlite" ~alloc ~fs:Cfg.Ramfs ~mem_mb:128 ()) in
  let env = ok (Vm.boot ~vmm:Vmm.Qemu cfg) in
  let journal =
    match journal with
    | Some true -> Some (Option.get env.Vm.vfs, "/journal")
    | Some false | None -> None
  in
  let db =
    Ukapps.Sqldb.create ~clock:env.Vm.clock ~alloc:env.Vm.alloc ?journal ~per_stmt_overhead ()
  in
  (match Ukapps.Sqldb.exec db "CREATE TABLE tab (id INTEGER, payload TEXT)" with
  | Ok _ -> ()
  | Error e -> failwith e);
  ignore (Ukapps.Sqldb.exec db "BEGIN");
  let s = Uksim.Clock.start env.Vm.clock in
  for i = 1 to queries do
    match
      Ukapps.Sqldb.exec db (Printf.sprintf "INSERT INTO tab VALUES (%d, 'payload-%d')" i i)
    with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  ignore (Ukapps.Sqldb.exec db "COMMIT");
  Uksim.Clock.elapsed_ns env.Vm.clock s

let fig16 =
  {
    Bench.id = "fig16";
    group = "perf";
    descr = "SQLite insert speedup relative to mimalloc, by query count";
    run =
      (fun () ->
        let counts = List.map scaled [ 100; 1000; 10_000; 60_000 ] in
        let allocs = [ Cfg.Tinyalloc; Cfg.Tlsf; Cfg.Buddy; Cfg.Mimalloc ] in
        row "%-10s" "queries";
        List.iter (fun a -> row " %12s" (alloc_name a)) allocs;
        row "\n";
        List.iter
          (fun q ->
            let base = sqlite_insert_time ~alloc:Cfg.Mimalloc ~queries:q () in
            row "%-10d" q;
            List.iter
              (fun a ->
                let t = sqlite_insert_time ~alloc:a ~queries:q () in
                row " %12.3f" (base /. t))
              allocs;
            row "\n")
          counts;
        row
          "=> paper: tinyalloc fastest below ~1000 queries, falls behind at high counts;\n   mimalloc ~20%% ahead under high load\n");
  }

let fig17 =
  {
    Bench.id = "fig17";
    group = "perf";
    descr = "60k SQLite insertions: native linux / newlib / musl / external";
    run =
      (fun () ->
        let q = scaled 60_000 in
        (* Per-statement libc deltas: newlib's slower string/stdio path, the
           1.5% external (automatically ported) penalty of §5.4, and the
           Linux baseline's syscall+KPTI tax on its journal I/O. *)
        let musl = sqlite_insert_time ~alloc:Cfg.Tlsf ~queries:q () in
        let base_stmt_cycles =
          Uksim.Clock.cycles_of_ns musl / max 1 q
        in
        let with_overhead frac =
          sqlite_insert_time ~alloc:Cfg.Tlsf ~queries:q
            ~per_stmt_overhead:(int_of_float (float_of_int base_stmt_cycles *. frac))
            ()
        in
        let newlib = with_overhead 0.06 in
        let external_ = with_overhead 0.015 in
        let linux = with_overhead 0.10 in
        row "%-22s %12s\n" "configuration" "time (ms)";
        row "%-22s %12.1f\n" "linux (baremetal)" (ms linux);
        row "%-22s %12.1f\n" "unikraft newlib native" (ms newlib);
        row "%-22s %12.1f\n" "unikraft musl native" (ms musl);
        row "%-22s %12.1f\n" "unikraft musl external" (ms external_);
        row "=> paper: external build only ~1.5%% slower than native; both beat baremetal linux\n");
  }

let fig18 =
  {
    Bench.id = "fig18";
    group = "perf";
    descr = "Redis throughput per allocator and request type";
    run =
      (fun () ->
        row "%-12s %12s %12s\n" "allocator" "GET (k/s)" "SET (k/s)";
        List.iter
          (fun alloc ->
            let get = redis_rate ~alloc ~requests:30_000 Ukapps.Resp_store.Get in
            let set = redis_rate ~alloc ~requests:30_000 Ukapps.Resp_store.Set in
            row "%-12s %12.0f %12.0f\n" (alloc_name alloc) (kreq get) (kreq set))
          all_allocs;
        row "=> paper: no allocator wins everywhere; right choice buys up to 2.5x\n");
  }

let register () = List.iter Bench.register_exp [ tab01; fig12; fig13; fig15; fig16; fig17; fig18 ]
