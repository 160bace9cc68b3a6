(* Tests for the inference-serving workload: content-addressed weight
   publication and boot-time streaming load, the admission queue's batch
   semantics (full flush, deadline flush, stale timers, amortization),
   legacy/fast server equivalence, and SMP replay determinism. *)

module Bfs = Ukvfs.Blockfs
module Infer = Ukapps.Infer
module Cl = Ukapps.Cluster

let rig () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  (clock, engine)

let mk_store ?(size_mb = 2) ?seed () =
  let clock, engine = rig () in
  let dev =
    Ukblock.Virtio_blk.create ~clock ~engine ~capacity_sectors:((size_mb + 2) * 2048) ()
  in
  let store, name = Infer.publish ~clock ~dev ?seed ~size_mb () in
  (clock, engine, dev, store, name)

let mounted store clock =
  let vfs = Ukvfs.Vfs.create ~clock in
  (match Ukvfs.Vfs.mount vfs ~at:"/models" (Bfs.to_fs store) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mount: %s" (Ukvfs.Fs.errno_to_string e));
  vfs

(* --- weights -------------------------------------------------------------- *)

let test_publish_deterministic () =
  let _, _, _, _, name1 = mk_store ~seed:7 () in
  let _, _, _, _, name2 = mk_store ~seed:7 () in
  let _, _, _, _, name3 = mk_store ~seed:8 () in
  Alcotest.(check string) "same seed, same content address" name1 name2;
  Alcotest.(check bool) "different seed, different address" true (name1 <> name3);
  Alcotest.(check int) "address is 16 hex digits" 16 (String.length name1)

let test_load_verifies_and_charges () =
  let clock, _, _, store, name = mk_store () in
  let vfs = mounted store clock in
  let t0 = Uksim.Clock.ns clock in
  match Infer.load ~clock ~vfs ~store ~path:("/models/" ^ name) () with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check string) "model keeps its content address" name m.Infer.name;
      Alcotest.(check int) "size in MiB" 2 m.Infer.size_mb;
      Alcotest.(check int) "size in bytes" (2 * 1024 * 1024) m.Infer.bytes;
      Alcotest.(check string) "digest matches the address" name
        (Printf.sprintf "%016x" m.Infer.digest);
      Alcotest.(check bool) "load charged virtual time" true (m.Infer.load_ns > 0.0);
      Alcotest.(check bool) "clock advanced by the load" true
        (Uksim.Clock.ns clock -. t0 >= m.Infer.load_ns)

let test_load_rejects_tampered_weights () =
  let clock, _, dev, store, name = mk_store () in
  (* Flip the first object's first page header on disk (objects start
     right after the 8-sector superblock). *)
  (match dev.Ukblock.Blockdev.write_sync ~lba:8 (Bytes.make 512 '\xFF') with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "tamper write failed");
  let vfs = mounted store clock in
  (match Infer.load ~clock ~vfs ~store ~path:("/models/" ^ name) () with
  | Ok _ -> Alcotest.fail "tampered weights must not load"
  | Error _ -> ());
  (* The generic store read path reports the same corruption. *)
  match Bfs.stream store ~name () with
  | Ok _ -> Alcotest.fail "stream must detect the digest mismatch"
  | Error e -> Alcotest.(check string) "Eio" "EIO" (Ukvfs.Fs.errno_to_string e)

let test_load_needs_vfs_resolution () =
  let clock, _, _, store, name = mk_store () in
  let vfs = Ukvfs.Vfs.create ~clock in
  (* Nothing mounted: the path cannot resolve even though the store has
     the object — metadata goes through vfscore, not around it. *)
  match Infer.load ~clock ~vfs ~store ~path:("/models/" ^ name) () with
  | Ok _ -> Alcotest.fail "load must fail without a mount"
  | Error _ -> ()

let test_stream_cheaper_than_pread () =
  let clock, _, _, store, name = mk_store () in
  let vfs = mounted store clock in
  let t0 = Uksim.Clock.ns clock in
  (match Bfs.stream store ~name () with
  | Ok s -> Alcotest.(check int) "streamed all bytes" (2 * 1024 * 1024) s.Bfs.bytes
  | Error e -> Alcotest.failf "stream: %s" (Ukvfs.Fs.errno_to_string e));
  let stream_ns = Uksim.Clock.ns clock -. t0 in
  let fd =
    match Ukvfs.Vfs.open_file vfs ("/models/" ^ name) () with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "open: %s" (Ukvfs.Fs.errno_to_string e)
  in
  let t1 = Uksim.Clock.ns clock in
  (match Ukvfs.Vfs.pread vfs fd ~off:0 ~len:(2 * 1024 * 1024) with
  | Ok b -> Alcotest.(check int) "pread all bytes" (2 * 1024 * 1024) (Bytes.length b)
  | Error e -> Alcotest.failf "pread: %s" (Ukvfs.Fs.errno_to_string e));
  let pread_ns = Uksim.Clock.ns clock -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "stream (%.0fus) beats the copying path (%.0fus)" (stream_ns /. 1e3)
       (pread_ns /. 1e3))
    true
    (stream_ns < pread_ns)

let test_load_publishes_trace_source () =
  let clock, _, _, store, name = mk_store () in
  let vfs = mounted store clock in
  (match Infer.load ~clock ~vfs ~store ~path:("/models/" ^ name) () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let snap = Uktrace.Registry.snapshot () in
  match Uktrace.Registry.find_sample snap "ukapps.infer" "weight_loads" with
  | Some (Uktrace.Metric.Count n) ->
      Alcotest.(check bool) "at least this load counted" true (n >= 1)
  | _ -> Alcotest.fail "sticky ukapps.infer source not published"

(* --- the admission queue --------------------------------------------------- *)

let light_model =
  (* A synthetic 1 MiB model: small enough that batch tests run in
     microseconds of virtual time. *)
  { Infer.name = "feedfacefeedface"; digest = 0xfeedface; size_mb = 1;
    bytes = 1 lsl 20; load_ns = 0.0 }

(* How far sample [name] of the sticky infer source moves from now on. *)
let counting name =
  let count () = Uktrace.Source.count (Infer.source ()) name in
  let at = count () in
  fun () -> count () - at

let capture replies rid width = fun s ->
  replies := (rid, width, s) :: !replies

let test_batch_full_flush () =
  let clock, engine = rig () in
  let t = Infer.create_bare ~clock ~engine ~max_batch:4 ~model:light_model () in
  let batches = counting "batches" and requests = counting "requests" in
  let replies = ref [] in
  for rid = 1 to 3 do
    Infer.submit t ~rid ~width:8 ~reply:(capture replies rid 8)
  done;
  Alcotest.(check int) "below max_batch nothing fires" 0 (List.length !replies);
  Infer.submit t ~rid:4 ~width:8 ~reply:(capture replies 4 8);
  Alcotest.(check int) "the 4th request flushes the batch" 4 (List.length !replies);
  Alcotest.(check int) "one batch" 1 (batches ());
  Alcotest.(check int) "four requests" 4 (requests ());
  List.iter
    (fun (rid, _, s) ->
      Alcotest.(check int) "fixed reply size" Infer.reply_len (String.length s);
      Alcotest.(check string) "status + id" (Printf.sprintf "OK %08x" rid)
        (String.sub s 0 11))
    !replies

let test_batch_deadline_flush () =
  let clock, engine = rig () in
  let t =
    Infer.create_bare ~clock ~engine ~max_batch:8
      ~max_wait_ns:(Uksim.Units.usec 20.0) ~model:light_model ()
  in
  let batches = counting "batches" in
  let replies = ref [] in
  Infer.submit t ~rid:1 ~width:8 ~reply:(capture replies 1 8);
  Infer.submit t ~rid:2 ~width:8 ~reply:(capture replies 2 8);
  Uksim.Engine.run_for_ns engine (Uksim.Units.usec 10.0);
  Alcotest.(check int) "before the deadline nothing fires" 0 (List.length !replies);
  Uksim.Engine.run_for_ns engine (Uksim.Units.usec 200.0);
  Alcotest.(check int) "deadline flushes the partial batch" 2 (List.length !replies);
  Alcotest.(check int) "as one batch" 1 (batches ())

let test_stale_timer_is_inert () =
  let clock, engine = rig () in
  let t =
    Infer.create_bare ~clock ~engine ~max_batch:2
      ~max_wait_ns:(Uksim.Units.usec 20.0) ~model:light_model ()
  in
  let batches = counting "batches" in
  let replies = ref [] in
  (* First submit arms a deadline; the second flushes by occupancy. The
     armed timer must then fire as a no-op, not re-batch or double-count. *)
  Infer.submit t ~rid:1 ~width:8 ~reply:(capture replies 1 8);
  Infer.submit t ~rid:2 ~width:8 ~reply:(capture replies 2 8);
  Alcotest.(check int) "occupancy flush" 2 (List.length !replies);
  Uksim.Engine.run_for_ns engine (Uksim.Units.usec 200.0);
  Alcotest.(check int) "stale deadline adds nothing" 2 (List.length !replies);
  Alcotest.(check int) "still one batch" 1 (batches ())

let test_batching_amortizes_weight_pass () =
  let serve max_batch =
    let clock, engine = rig () in
    let t = Infer.create_bare ~clock ~engine ~max_batch ~model:light_model () in
    let t0 = Uksim.Clock.cycles clock in
    for rid = 1 to 16 do
      Infer.submit t ~rid ~width:8 ~reply:(fun _ -> ())
    done;
    Infer.pump t;
    Uksim.Clock.cycles clock - t0
  in
  let unbatched = serve 1 and batched = serve 16 in
  Alcotest.(check bool)
    (Printf.sprintf "16 batches of 1 (%d cy) cost more than 1 batch of 16 (%d cy)"
       unbatched batched)
    true
    (unbatched > 8 * batched)

let test_state_hash_order_independent () =
  let serve order =
    let clock, engine = rig () in
    let t = Infer.create_bare ~clock ~engine ~max_batch:2 ~model:light_model () in
    List.iter (fun rid -> Infer.submit t ~rid ~width:4 ~reply:(fun _ -> ())) order;
    Infer.pump t;
    Infer.state_hash t
  in
  let a = serve [ 1; 2; 3; 4; 5 ] and b = serve [ 5; 3; 1; 4; 2 ] in
  Alcotest.(check int) "same request set, same state hash" a b;
  Alcotest.(check bool) "different set, different hash" true (a <> serve [ 1; 2; 3 ])

(* --- servers over the cluster harness -------------------------------------- *)

let netbuf = Ukapps.Serve.Netbuf { rtc = true }

let test_legacy_fast_equivalence () =
  let serve fast =
    let c = Cl.create ~seed:5 ~n:1 () in
    let transport = if fast then netbuf else Ukapps.Serve.Socket in
    let workers = Cl.add_infer c ~transport ~size_mb:2 () in
    let requests = counting "requests" in
    let r =
      Cl.run_load c ~transport ~port:8000 ~connections_per_core:4 ~requests_per_core:200
        (Infer.client ())
    in
    (r, Infer.state_hash workers.(0), requests ())
  in
  let rl, hl, sl = serve false and rf, hf, sf = serve true in
  Alcotest.(check int) "legacy answers everything" 200 rl.Ukapps.Load.requests;
  Alcotest.(check int) "fast answers everything" 200 rf.Ukapps.Load.requests;
  Alcotest.(check int) "no legacy errors" 0 rl.Ukapps.Load.errors;
  Alcotest.(check int) "no fast errors" 0 rf.Ukapps.Load.errors;
  Alcotest.(check int) "identical served-set state hash" hl hf;
  Alcotest.(check int) "identical request counts server-side" sl sf;
  Alcotest.(check bool) "the fast path is faster" true
    (rf.Ukapps.Load.elapsed_ns < rl.Ukapps.Load.elapsed_ns)

let test_batch_knob_trades_latency_for_throughput () =
  let run max_batch =
    let c = Cl.create ~seed:9 ~n:1 () in
    ignore (Cl.add_infer c ~transport:netbuf ~size_mb:4 ~max_batch ());
    Cl.run_load c ~transport:netbuf ~port:8000 ~connections_per_core:8 ~requests_per_core:240
      (Infer.client ())
  in
  let r1 = run 1 and r8 = run 8 in
  Alcotest.(check bool) "batching lifts throughput under concurrency" true
    (r8.Ukapps.Load.rate_per_sec > r1.Ukapps.Load.rate_per_sec);
  Alcotest.(check bool) "and lowers p99 under the same offered load" true
    (r8.Ukapps.Load.p99_us < r1.Ukapps.Load.p99_us)

let test_smp_replay_deterministic () =
  (* 8 cores: 4 server cores each loading its own weights and serving,
     4 client cores driving steered flows — replayed byte-identically. *)
  let go () =
    let c = Cl.create ~seed:21 ~n:4 () in
    ignore (Cl.add_infer c ~transport:netbuf ~size_mb:2 ());
    let r =
      Cl.run_load c ~transport:netbuf ~port:8000 ~connections_per_core:2 ~requests_per_core:120
        (Infer.client ())
    in
    (r, Cl.trace_hash c, Cl.elapsed_ns c)
  in
  let r1, h1, t1 = go () in
  let r2, h2, t2 = go () in
  Alcotest.(check int) "all requests served" 480 r1.Ukapps.Load.requests;
  Alcotest.(check int) "no errors" 0 r1.Ukapps.Load.errors;
  Alcotest.(check bool) "identical results" true (r1 = r2);
  Alcotest.(check int) "identical trace hash" h1 h2;
  Alcotest.(check (float 0.0)) "identical elapsed" t1 t2

let suite =
  [
    Alcotest.test_case "publish is deterministic and content-addressed" `Quick
      test_publish_deterministic;
    Alcotest.test_case "load verifies digest and charges the clock" `Quick
      test_load_verifies_and_charges;
    Alcotest.test_case "tampered weights are rejected" `Quick
      test_load_rejects_tampered_weights;
    Alcotest.test_case "weight paths resolve through vfscore" `Quick
      test_load_needs_vfs_resolution;
    Alcotest.test_case "streaming load beats the copying read path" `Quick
      test_stream_cheaper_than_pread;
    Alcotest.test_case "sticky ukapps.infer source reports loads" `Quick
      test_load_publishes_trace_source;
    Alcotest.test_case "admission queue flushes at max_batch" `Quick
      test_batch_full_flush;
    Alcotest.test_case "admission queue flushes at the deadline" `Quick
      test_batch_deadline_flush;
    Alcotest.test_case "stale deadline timers are inert" `Quick
      test_stale_timer_is_inert;
    Alcotest.test_case "batching amortizes the weight pass" `Quick
      test_batching_amortizes_weight_pass;
    Alcotest.test_case "state hash is request-order independent" `Quick
      test_state_hash_order_independent;
    Alcotest.test_case "legacy and fast servers serve identical state" `Quick
      test_legacy_fast_equivalence;
    Alcotest.test_case "max_batch trades latency for throughput" `Quick
      test_batch_knob_trades_latency_for_throughput;
    Alcotest.test_case "8-core serving replays byte-identically" `Quick
      test_smp_replay_deterministic;
  ]
