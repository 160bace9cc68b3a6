(* Core-scaling benchmark over the uksmp substrate.

   The paper's evaluation is single-core; this experiment measures what
   the multicore substrate buys: httpd and RESP throughput at 1/2/4/8
   server cores (weak scaling — fixed per-core load, so ideal scaling is
   rate proportional to cores with flat elapsed), a per-core-arena vs.
   shared-lock allocator ablation at 4 cores, and a same-seed 8-core
   replay with the tracer on. Gates: 4-core httpd speedup >= 2 and the
   traced replay (smp_replay). *)

open Common
module Cluster = Ukapps.Cluster
module Spin = Uklock.Lock.Spin

let core_counts = [ 1; 2; 4; 8 ]
let page = String.make 612 'x' (* the paper's static page size *)

let httpd_requests_per_core () = scaled 4000
let resp_requests_per_core () = scaled 8000

let run_httpd ?(alloc_mode = Cluster.Arena) ?(seed = 1) ~n () =
  Bench.trial ();
  let c = Cluster.create ~seed ~alloc_mode ~n () in
  ignore
    (Cluster.add_httpd c ~transport:Ukapps.Serve.Socket
       (Ukapps.Httpd.In_memory [ ("/index.html", page) ]));
  let r =
    Cluster.run_load c ~transport:Ukapps.Serve.Socket ~port:80 ~connections_per_core:8
      ~requests_per_core:(httpd_requests_per_core ()) (Ukapps.Httpd.client ())
  in
  (c, r)

let run_resp ?(alloc_mode = Cluster.Arena) ?(seed = 1) ~n workload =
  Bench.trial ();
  let c = Cluster.create ~seed ~alloc_mode ~n () in
  (* 4096 keys covers the RESP client's whole key space, so GETs are all
     hits. *)
  ignore (Cluster.add_resp c ~transport:Ukapps.Serve.Socket ~populate:4096 ());
  (* Prepopulation runs on core 0 before the load; drop its lock traffic so
     the reported spin stats cover only the measured serving phase. *)
  (Spin.source (Cluster.alloc_spin c)).Uktrace.Source.reset ();
  let r =
    Cluster.run_load c ~transport:Ukapps.Serve.Socket ~port:6379 ~connections_per_core:8
      ~pipeline:16 ~requests_per_core:(resp_requests_per_core ())
      (Ukapps.Resp_store.client workload)
  in
  (c, r)

let httpd_fingerprint c r = Bench.fp_i "trace_hash" (Cluster.trace_hash c) :: load_fingerprint r

let smp =
  {
    Bench.id = "smp";
    group = "smp";
    descr = "core scaling: httpd + RESP over uksmp (1/2/4/8 cores)";
    run =
      (fun () ->
        (* --- httpd scaling curve --- *)
        row "httpd, %d requests/core, 8 connections/core (weak scaling)\n"
          (httpd_requests_per_core ());
        row "%-8s %12s %10s %12s %8s\n" "cores" "kreq/s" "speedup" "elapsed ms" "errors";
        let httpd_rates =
          Bench.phase "httpd_scaling" (fun () ->
              List.map
                (fun n ->
                  let _, r = run_httpd ~n () in
                  (n, r))
                core_counts)
        in
        let base_rate =
          (List.assoc 1 httpd_rates).Ukapps.Load.rate_per_sec
        in
        List.iter
          (fun (n, (r : Ukapps.Load.result)) ->
            row "%-8d %12.1f %9.2fx %12.2f %8d\n" n (kreq r.rate_per_sec)
              (r.rate_per_sec /. base_rate) (ms r.elapsed_ns) r.errors)
          httpd_rates;
        let speedup_4 =
          (List.assoc 4 httpd_rates).Ukapps.Load.rate_per_sec /. base_rate
        in

        (* --- RESP scaling curves --- *)
        let resp_curve workload label =
          row "\nRESP %s, %d requests/core, pipeline 16 (weak scaling)\n" label
            (resp_requests_per_core ());
          row "%-8s %12s %10s %8s\n" "cores" "kreq/s" "speedup" "errors";
          let runs =
            Bench.phase ("resp_" ^ String.lowercase_ascii label) (fun () ->
                List.map
                  (fun n ->
                    let _, r = run_resp ~n workload in
                    (n, r))
                  core_counts)
          in
          let base = (List.assoc 1 runs).Ukapps.Load.rate_per_sec in
          List.iter
            (fun (n, (r : Ukapps.Load.result)) ->
              row "%-8d %12.1f %9.2fx %8d\n" n (kreq r.rate_per_sec)
                (r.rate_per_sec /. base) r.errors)
            runs;
          runs
        in
        ignore (resp_curve Ukapps.Resp_store.Get "GET");
        let set_runs = resp_curve Ukapps.Resp_store.Set "SET" in
        ignore set_runs;

        (* --- allocator ablation: per-core arena vs one shared lock --- *)
        row "\nallocator ablation, RESP SET at 4 cores\n";
        row "%-14s %12s %16s %16s\n" "allocator" "kreq/s" "spin waits" "spin wait cyc";
        let ablate mode label =
          let c, r = run_resp ~alloc_mode:mode ~n:4 Ukapps.Resp_store.Set in
          let st = Spin.source (Cluster.alloc_spin c) in
          row "%-14s %12.1f %16d %16d\n" label
            (kreq r.Ukapps.Load.rate_per_sec)
            (Uktrace.Source.count st "contended") (Uktrace.Source.count st "wait_cycles");
          r.Ukapps.Load.rate_per_sec
        in
        let arena_rate, shared_rate =
          Bench.phase "alloc_ablation" (fun () ->
              let arena = ablate Cluster.Arena "per-core arena" in
              let shared = ablate Cluster.Shared_lock "shared lock" in
              (arena, shared))
        in
        row "arena/shared: %.2fx\n" (arena_rate /. shared_rate);

        (* --- replay: same seed, 8 cores, rerun with the tracer live --- *)
        let fp () =
          let c, r = run_httpd ~seed:7 ~n:8 () in
          httpd_fingerprint c r
        in
        row "\nseeded replay (8 cores, seed 7)\n";
        Bench.phase "determinism" (fun () -> Bench.replay "smp" ~first:(fp ()) fp);

        Bench.emit "httpd_rate_per_sec"
          (Printf.sprintf "{%s}"
             (String.concat ", "
                (List.map
                   (fun (n, (r : Ukapps.Load.result)) ->
                     Printf.sprintf "\"%d\": %.1f" n r.rate_per_sec)
                   httpd_rates)));
        Bench.emit "speedup_4" (Printf.sprintf "%.3f" speedup_4);
        Bench.emit "arena_rate_per_sec" (Printf.sprintf "%.1f" arena_rate);
        Bench.emit "sharedlock_rate_per_sec" (Printf.sprintf "%.1f" shared_rate);
        Bench.gate "speedup_4_ge_2" (speedup_4 >= 2.0));
  }

let register () = Bench.register_exp smp
