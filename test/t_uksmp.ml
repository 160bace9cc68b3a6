(* Tests for the uksmp multicore substrate and its consumers. *)

module Smp = Uksmp.Smp
module Rss = Uknetdev.Rss
module Spin = Uklock.Lock.Spin
module Cluster = Ukapps.Cluster

(* --- coordinator basics -------------------------------------------------- *)

let test_spawn_everywhere () =
  let smp = Smp.create ~cores:4 () in
  let ran = Array.make 4 false in
  for c = 0 to 3 do
    ignore
      (Smp.spawn_on smp ~core:c ~pinned:true (fun () ->
           Smp.charge smp 1000;
           ran.(c) <- true))
  done;
  Smp.run smp;
  Alcotest.(check (array bool)) "all cores ran" [| true; true; true; true |] ran;
  for c = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "core %d advanced" c)
      true
      (Uksim.Clock.cycles (Smp.clock_of smp ~core:c) > 0)
  done

let test_cross_core_wake_is_ipi () =
  let smp = Smp.create ~cores:2 () in
  let tid = ref (-1) in
  let woken = ref false in
  tid :=
    Smp.spawn_on smp ~core:1 ~pinned:true (fun () ->
        Uksched.Sched.block ();
        woken := true);
  ignore
    (Smp.spawn_on smp ~core:0 ~pinned:true (fun () ->
         (* sleep so the core-1 thread runs (and blocks) first *)
         Uksched.Sched.sleep_ns 100.0;
         (* wake through core 0's scheduler: the thread lives on core 1,
            so the group routes it and charges an IPI there *)
         Uksched.Sched.wake (Smp.sched_of smp ~core:0) !tid));
  Smp.run smp;
  Alcotest.(check bool) "woken" true !woken;
  Alcotest.(check bool) "ipi counted" true ((Smp.stats smp ~core:1).Smp.ipis >= 1)

(* A registered "uksmp.cores" source holds only its counter cells: a
   domain nothing else references is collected before [Registry.clear],
   and its source still reads what it counted. *)
let[@inline never] run_and_drop weak =
  let smp = Smp.create ~cores:2 () in
  ignore (Smp.spawn_on smp ~core:0 ~pinned:true (fun () -> Smp.charge smp 1000));
  Smp.run smp;
  Weak.set weak 0 (Some smp)

let test_registered_source_keeps_no_domain () =
  Uktrace.Registry.clear ();
  let weak = Weak.create 1 in
  run_and_drop weak;
  Gc.full_major ();
  Alcotest.(check bool) "dropped domain collected" false (Weak.check weak 0);
  let src =
    List.find (fun s -> Uktrace.Source.id s = "uksmp.cores") (Uktrace.Registry.sources ())
  in
  Alcotest.(check int) "its source still reads core 0's step" 1
    (Uktrace.Source.count src "core0.steps");
  Uktrace.Registry.clear ()

(* --- work stealing ------------------------------------------------------- *)

let steal_makespan ~cores ~tasks ~cost =
  let smp = Smp.create ~cores () in
  let done_count = ref 0 in
  for _ = 1 to tasks do
    (* all unpinned work lands on core 0; idle cores must steal it *)
    ignore
      (Smp.spawn_on smp ~core:0 (fun () ->
           Smp.charge smp cost;
           incr done_count))
  done;
  Smp.run smp;
  Alcotest.(check int) "all tasks ran" tasks !done_count;
  (smp, Smp.elapsed_ns smp)

let test_steal_liveness () =
  let tasks = 40 and cost = 200_000 in
  let smp, para = steal_makespan ~cores:4 ~tasks ~cost in
  let _, serial = steal_makespan ~cores:1 ~tasks ~cost in
  let total_steals =
    let s = ref 0 in
    for c = 0 to 3 do
      s := !s + (Smp.stats smp ~core:c).Smp.steals
    done;
    !s
  in
  Alcotest.(check bool) "steals happened" true (total_steals > 0);
  for c = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "core %d participated" c)
      true
      ((Smp.stats smp ~core:c).Smp.steps > 0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "stealing beats serial (%.0f vs %.0f ns)" para serial)
    true
    (para < 0.5 *. serial)

let test_pinned_never_stolen () =
  let smp = Smp.create ~cores:4 () in
  for _ = 1 to 20 do
    ignore (Smp.spawn_on smp ~core:0 ~pinned:true (fun () -> Smp.charge smp 100_000))
  done;
  Smp.run smp;
  for c = 1 to 3 do
    Alcotest.(check int) (Printf.sprintf "core %d stole nothing" c) 0
      (Smp.stats smp ~core:c).Smp.steals
  done

(* --- determinism --------------------------------------------------------- *)

let test_trace_determinism () =
  List.iter
    (fun cores ->
      let go () =
        let smp = Smp.create ~seed:42 ~cores () in
        for i = 0 to (8 * cores) - 1 do
          ignore (Smp.spawn_on smp ~core:(i mod cores) (fun () -> Smp.charge smp (1000 * (1 + (i mod 7)))))
        done;
        Smp.run smp;
        (Smp.trace_hash smp, Smp.elapsed_ns smp)
      in
      let h1, e1 = go () and h2, e2 = go () in
      Alcotest.(check int) (Printf.sprintf "%d-core trace hash" cores) h1 h2;
      Alcotest.(check (float 0.0)) (Printf.sprintf "%d-core elapsed" cores) e1 e2)
    [ 1; 2; 4 ]

let test_cluster_determinism () =
  let go () =
    let c = Cluster.create ~seed:7 ~n:2 () in
    let transport = Ukapps.Serve.Socket in
    ignore (Cluster.add_httpd c ~transport (Ukapps.Httpd.In_memory [ ("/x", "hello") ]));
    let r =
      Cluster.run_load c ~transport ~port:80 ~connections_per_core:2 ~requests_per_core:60
        (Ukapps.Httpd.client ~path:"/x" ())
    in
    (Cluster.trace_hash c, r.Ukapps.Load.rate_per_sec, r.Ukapps.Load.errors)
  in
  let h1, r1, e1 = go () and h2, r2, e2 = go () in
  Alcotest.(check int) "cluster trace hash" h1 h2;
  Alcotest.(check (float 0.0)) "cluster rate" r1 r2;
  Alcotest.(check int) "no errors" 0 (e1 + e2)

(* --- RSS ----------------------------------------------------------------- *)

let test_rss_stability () =
  let q () =
    Rss.queue_of_tuple ~n_queues:4 ~proto:6 ~src_ip:0x0a000002 ~src_port:20123
      ~dst_ip:0x0a000001 ~dst_port:80
  in
  let q0 = q () in
  for _ = 1 to 50 do
    Alcotest.(check int) "same tuple, same queue" q0 (q ())
  done;
  (* symmetric: the reply direction lands on the same queue *)
  Alcotest.(check int) "symmetric" q0
    (Rss.queue_of_tuple ~n_queues:4 ~proto:6 ~src_ip:0x0a000001 ~src_port:80
       ~dst_ip:0x0a000002 ~dst_port:20123)

let test_rss_spread () =
  let hits = Array.make 4 0 in
  for p = 0 to 255 do
    let q =
      Rss.queue_of_tuple ~n_queues:4 ~proto:6 ~src_ip:0x0a000002 ~src_port:(20000 + p)
        ~dst_ip:0x0a000001 ~dst_port:80
    in
    hits.(q) <- hits.(q) + 1
  done;
  Array.iteri
    (fun i n -> Alcotest.(check bool) (Printf.sprintf "queue %d used" i) true (n > 20))
    hits

let test_rss_frame_parsing () =
  (* Hand-build an ethernet+IPv4+TCP frame and check frame and tuple
     hashing agree; non-IP frames have no queue. *)
  let frame = Bytes.make 60 '\000' in
  Bytes.set frame 12 '\x08';
  Bytes.set frame 13 '\x00' (* ethertype IPv4 *);
  Bytes.set frame 14 '\x45' (* v4, ihl 5 *);
  Bytes.set frame 23 '\x06' (* TCP *);
  (* src 10.0.0.2, dst 10.0.0.1 *)
  Bytes.set frame 26 '\x0a';
  Bytes.set frame 29 '\x02';
  Bytes.set frame 30 '\x0a';
  Bytes.set frame 33 '\x01';
  (* sport 20123 = 0x4e9b, dport 80 *)
  Bytes.set frame 34 '\x4e';
  Bytes.set frame 35 '\x9b';
  Bytes.set frame 37 '\x50';
  let expect =
    Rss.queue_of_tuple ~n_queues:4 ~proto:6 ~src_ip:0x0a000002 ~src_port:20123
      ~dst_ip:0x0a000001 ~dst_port:80
  in
  Alcotest.(check (option int)) "frame hash = tuple hash" (Some expect)
    (Rss.queue_of_frame frame ~n_queues:4);
  let arp = Bytes.make 60 '\000' in
  Bytes.set arp 12 '\x08';
  Bytes.set arp 13 '\x06';
  Alcotest.(check (option int)) "ARP has no queue" None (Rss.queue_of_frame arp ~n_queues:4)

let test_cluster_rss_distribution () =
  (* Every server stack must see TCP traffic — flows really spread across
     the queues and stay on their cores. *)
  let c = Cluster.create ~n:4 () in
  let transport = Ukapps.Serve.Socket in
  ignore (Cluster.add_httpd c ~transport (Ukapps.Httpd.In_memory [ ("/x", "ok") ]));
  let r =
    Cluster.run_load c ~transport ~port:80 ~connections_per_core:2 ~requests_per_core:40
      (Ukapps.Httpd.client ~path:"/x" ())
  in
  Alcotest.(check int) "no errors" 0 r.Ukapps.Load.errors;
  for i = 0 to 3 do
    let st = Uknetstack.Stack.source (Cluster.server_stack c i) in
    Alcotest.(check bool)
      (Printf.sprintf "server stack %d saw tcp" i)
      true
      (Uktrace.Source.count st "rx_tcp" > 0)
  done

(* --- spinlock ------------------------------------------------------------ *)

let test_spin_contention () =
  let l = Spin.create ~name:"t" () in
  let c0 = Uksim.Clock.create () and c1 = Uksim.Clock.create () in
  Spin.acquire l c0 ~hold:1000;
  (* c1 is behind: it must spin until c0's release point *)
  Spin.acquire l c1 ~hold:500;
  let count = Uktrace.Source.count (Spin.source l) in
  Alcotest.(check int) "acquisitions" 2 (count "acquisitions");
  Alcotest.(check int) "contended" 1 (count "contended");
  Alcotest.(check int) "wait cycles" 1000 (count "wait_cycles");
  Alcotest.(check int) "c1 waited then held" 1500 (Uksim.Clock.cycles c1);
  (* c1 released at 1500; a late acquirer at 2000 sails through *)
  Uksim.Clock.advance c0 1000 (* c0 now at 2000 *);
  Spin.acquire l c0 ~hold:100;
  Alcotest.(check int) "no new contention" 1 (count "contended")

let test_mutex_contention_accounting () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let m = Uklock.Lock.Mutex.create (Uklock.Lock.Threaded sched) in
  ignore
    (Uksched.Sched.spawn sched (fun () ->
         Uklock.Lock.Mutex.lock m;
         Uksched.Sched.sleep_ns 1000.0;
         Uklock.Lock.Mutex.unlock m));
  ignore
    (Uksched.Sched.spawn sched (fun () ->
         Uklock.Lock.Mutex.lock m;
         Uklock.Lock.Mutex.unlock m));
  Uksched.Sched.run sched;
  let count = Uktrace.Source.count (Uklock.Lock.Mutex.source m) in
  Alcotest.(check int) "two acquisitions" 2 (count "acquisitions");
  Alcotest.(check int) "one blocked acquisition" 1 (count "contended");
  Alcotest.(check bool) "waited some cycles" true (count "wait_cycles" > 0)

(* --- per-core arena ------------------------------------------------------ *)

let test_arena_basic_and_refill () =
  let clocks = Array.init 2 (fun _ -> Uksim.Clock.create ()) in
  let backend =
    Ukalloc.Tlsf.create ~clock:(Uksim.Clock.create ()) ~base:(1 lsl 20) ~len:(1 lsl 20)
  in
  let arena = Ukalloc.Percore.create ~clocks ~backend ~batch:8 ~max_cached:16 () in
  let v0 = Ukalloc.Percore.view arena ~core:0 in
  let addrs = ref [] in
  for _ = 1 to 8 do
    match Ukalloc.Alloc.uk_malloc v0 100 with
    | Some a -> addrs := a :: !addrs
    | None -> Alcotest.fail "arena malloc failed"
  done;
  Alcotest.(check int) "unique addrs" 8 (List.length (List.sort_uniq compare !addrs));
  let src = Ukalloc.Percore.source arena in
  Alcotest.(check int) "one refill of 8 serves 8 allocs" 1 (Uktrace.Source.count src "refills");
  Alcotest.(check int) "fast hits after first" 7 (Uktrace.Source.count src "fast_hits");
  (* batch amortization: backend saw one burst of allocs, not one per malloc *)
  Alcotest.(check int) "backend allocs = batch" 8
    (Uktrace.Source.count backend.Ukalloc.Alloc.source "allocs");
  List.iter (Ukalloc.Alloc.uk_free v0) !addrs;
  Alcotest.(check int) "frees accounted" 8 (Uktrace.Source.count v0.Ukalloc.Alloc.source "frees");
  Alcotest.(check (float 0.0)) "freed objects cached in magazine" 8.0
    (Uktrace.Source.level src "cached_objs")

let test_arena_oom_propagates () =
  let clocks = [| Uksim.Clock.create () |] in
  let rng = Uksim.Rng.create 5 in
  let backend =
    Ukalloc.Tlsf.create ~clock:(Uksim.Clock.create ()) ~base:(1 lsl 20) ~len:(1 lsl 20)
  in
  let faulty = Ukfault.Faultalloc.wrap ~rng ~fail_every:3 backend in
  let arena =
    Ukalloc.Percore.create ~clocks ~backend:(Ukfault.Faultalloc.alloc faulty) ~batch:4 ()
  in
  let v = Ukalloc.Percore.view arena ~core:0 in
  let got = ref 0 and failed = ref 0 and addrs = ref [] in
  for _ = 1 to 200 do
    match Ukalloc.Alloc.uk_malloc v 4097 (* bypass size: hits backend every time *) with
    | Some a ->
        incr got;
        addrs := a :: !addrs
    | None -> incr failed
  done;
  Alcotest.(check bool) "some failures injected" true (!failed > 0);
  Alcotest.(check bool) "some successes" true (!got > 0);
  Alcotest.(check int) "unique addrs" !got (List.length (List.sort_uniq compare !addrs));
  List.iter (Ukalloc.Alloc.uk_free v) !addrs;
  (* small-class path: a refill that gets zero objects must return None *)
  let exhausted = Ukfault.Faultalloc.wrap ~rng ~fail_rate:1.0 backend in
  let arena2 =
    Ukalloc.Percore.create ~clocks ~backend:(Ukfault.Faultalloc.alloc exhausted) ~batch:4 ()
  in
  let v2 = Ukalloc.Percore.view arena2 ~core:0 in
  Alcotest.(check (option int)) "oom propagates" None (Ukalloc.Alloc.uk_malloc v2 64)

let test_arena_beats_shared_lock_under_contention () =
  (* Same allocation trace on 4 cores: the arena's lock-free hot path must
     accumulate far less spin-wait than the everything-under-one-lock
     baseline. *)
  let run mode =
    let clocks = Array.init 4 (fun _ -> Uksim.Clock.create ()) in
    let backend =
      Ukalloc.Tlsf.create ~clock:(Uksim.Clock.create ()) ~base:(1 lsl 22) ~len:(1 lsl 22)
    in
    let views, spin =
      match mode with
      | `Arena ->
          let a = Ukalloc.Percore.create ~clocks ~backend () in
          (Array.init 4 (fun i -> Ukalloc.Percore.view a ~core:i), Ukalloc.Percore.lock a)
      | `Shared -> Ukalloc.Percore.shared_lock_views ~clocks ~backend ()
    in
    (* interleave cores like the coordinator would *)
    for round = 1 to 200 do
      ignore round;
      Array.iter
        (fun v ->
          match Ukalloc.Alloc.uk_malloc v 128 with
          | Some a -> Ukalloc.Alloc.uk_free v a
          | None -> Alcotest.fail "oom")
        views;
      Array.iter (fun c -> Uksim.Clock.advance c 50) clocks
    done;
    Uktrace.Source.count (Spin.source spin) "wait_cycles"
  in
  let arena_wait = run `Arena and shared_wait = run `Shared in
  Alcotest.(check bool)
    (Printf.sprintf "arena wait %d << shared wait %d" arena_wait shared_wait)
    true
    (arena_wait * 4 < shared_wait)

let suite =
  [
    Alcotest.test_case "smp: spawn on every core" `Quick test_spawn_everywhere;
    Alcotest.test_case "smp: cross-core wake charges IPI" `Quick test_cross_core_wake_is_ipi;
    Alcotest.test_case "smp: a registered source keeps no dropped domain" `Quick
      test_registered_source_keeps_no_domain;
    Alcotest.test_case "smp: work stealing liveness + speedup" `Quick test_steal_liveness;
    Alcotest.test_case "smp: pinned threads never stolen" `Quick test_pinned_never_stolen;
    Alcotest.test_case "smp: trace determinism across runs" `Quick test_trace_determinism;
    Alcotest.test_case "cluster: same-seed replay is identical" `Quick test_cluster_determinism;
    Alcotest.test_case "rss: stable and symmetric" `Quick test_rss_stability;
    Alcotest.test_case "rss: spreads over queues" `Quick test_rss_spread;
    Alcotest.test_case "rss: frame parsing" `Quick test_rss_frame_parsing;
    Alcotest.test_case "cluster: rss feeds every server stack" `Quick test_cluster_rss_distribution;
    Alcotest.test_case "spin: contention accounting" `Quick test_spin_contention;
    Alcotest.test_case "mutex: contention accounting" `Quick test_mutex_contention_accounting;
    Alcotest.test_case "arena: refill batching and fast path" `Quick test_arena_basic_and_refill;
    Alcotest.test_case "arena: OOM propagates (faultalloc)" `Quick test_arena_oom_propagates;
    Alcotest.test_case "arena vs shared lock contention" `Quick test_arena_beats_shared_lock_under_contention;
  ]
