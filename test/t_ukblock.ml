(* Tests for the ukblock API and its devices, plus TCP recovery over a
   lossy virtio-net link. *)

module B = Ukblock.Blockdev
module V = Ukblock.Virtio_blk
module Wire = Uknetdev.Wire
module Fn = Ukfault.Faultnet
module S = Uknetstack.Stack
module A = Uknetstack.Addr

let env () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  (clock, engine)

let test_ramdisk_rw () =
  let clock, _ = env () in
  let d = V.create_ramdisk ~clock () in
  let data = Bytes.make 1024 'a' in
  (match d.B.write_sync ~lba:10 data with Ok () -> () | Error e -> Alcotest.fail (B.error_to_string e));
  (match d.B.read_sync ~lba:10 ~sectors:2 with
  | Ok got -> Alcotest.(check bytes) "roundtrip" data got
  | Error e -> Alcotest.fail (B.error_to_string e));
  match d.B.read_sync ~lba:11 ~sectors:1 with
  | Ok got -> Alcotest.(check char) "second sector" 'a' (Bytes.get got 0)
  | Error _ -> Alcotest.fail "partial read"

(* Both devices over the same sparse medium: virtio-blk (completions on
   the engine, waited out by the sync calls) and the ramdisk. *)
let media =
  [
    ("virtio-blk", fun ~capacity_sectors ->
        let clock, engine = env () in
        V.create ~clock ~engine ~capacity_sectors ());
    ("ramdisk", fun ~capacity_sectors ->
        let clock, _ = env () in
        V.create_ramdisk ~clock ~capacity_sectors ());
  ]

let write_ok (d : B.t) ~lba data =
  match d.B.write_sync ~lba data with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write at lba %d: %s" lba (B.error_to_string e)

let read_ok (d : B.t) ~lba ~sectors =
  match d.B.read_sync ~lba ~sectors with
  | Ok b -> b
  | Error e -> Alcotest.failf "read at lba %d: %s" lba (B.error_to_string e)

(* [sectors] sectors of bytes that differ from sector to sector and from
   one [tag] to another. *)
let pattern ~tag sectors =
  Bytes.init (sectors * 512) (fun i -> Char.chr ((i + (i / 512 * 7) + (tag * 31)) land 255))

(* Out-of-range requests on both devices, a written medium included. *)
let test_bounds () =
  List.iter
    (fun (name, mk) ->
      let d = mk ~capacity_sectors:1000 in
      write_ok d ~lba:999 (pattern ~tag:0 1);
      let bounds what = function
        | Error B.Ebounds -> ()
        | Ok _ -> Alcotest.failf "%s: %s accepted" name what
        | Error e -> Alcotest.failf "%s: %s: %s" name what (B.error_to_string e)
      in
      bounds "a read past the end" (d.B.read_sync ~lba:999 ~sectors:2);
      bounds "a read at the end" (d.B.read_sync ~lba:1000 ~sectors:1);
      bounds "a read of no sectors" (d.B.read_sync ~lba:0 ~sectors:0);
      bounds "a negative lba" (d.B.read_sync ~lba:(-1) ~sectors:1);
      bounds "a write past the end" (d.B.write_sync ~lba:999 (pattern ~tag:0 2));
      bounds "an empty write" (d.B.write_sync ~lba:0 Bytes.empty);
      bounds "an unaligned write" (d.B.write_sync ~lba:0 (Bytes.make 100 'x'));
      bounds "a write at a negative lba" (d.B.write_sync ~lba:(-64) (pattern ~tag:0 64)))
    media

let test_virtio_blk_async () =
  let clock, engine = env () in
  let d = V.create ~clock ~engine ~host_latency_ns:10_000.0 () in
  let reqs = Array.init 8 (fun i -> B.Write { lba = i * 8; data = Bytes.make 512 'q' }) in
  Alcotest.(check int) "all submitted" 8 (d.B.submit reqs);
  Alcotest.(check int) "pending" 8 (d.B.pending ());
  Alcotest.(check (list int)) "nothing complete yet" []
    (List.map (fun _ -> 0) (d.B.poll_completions ~max:16));
  (* Advance past the host latency. *)
  Uksim.Clock.advance_ns clock 50_000.0;
  let done_ = d.B.poll_completions ~max:16 in
  Alcotest.(check int) "all complete" 8 (List.length done_);
  Alcotest.(check int) "none pending" 0 (d.B.pending ());
  List.iter
    (fun c -> match c.B.result with Ok _ -> () | Error e -> Alcotest.fail (B.error_to_string e))
    done_

let test_virtio_blk_interrupt () =
  let clock, engine = env () in
  let d = V.create ~clock ~engine ~host_latency_ns:5_000.0 () in
  let irqs = ref 0 in
  d.B.set_completion_handler (Some (fun () -> incr irqs));
  ignore (d.B.submit (Array.init 4 (fun i -> B.Read { lba = i; sectors = 1 })));
  Uksim.Engine.run engine;
  (* One idle-to-busy transition for the burst. *)
  Alcotest.(check int) "one interrupt" 1 !irqs;
  Alcotest.(check int) "completions there" 4 (List.length (d.B.poll_completions ~max:8))

(* A sync read issued while a submitted write is outstanding gets its own
   sectors back, and the write's completion stays queued for the poller. *)
let test_sync_read_beside_async_write () =
  let clock, engine = env () in
  let d = V.create ~clock ~engine ~host_latency_ns:20_000.0 () in
  let data = Bytes.make 512 'r' in
  (match d.B.write_sync ~lba:3 data with Ok () -> () | Error _ -> Alcotest.fail "seed write");
  let irqs = ref 0 in
  d.B.set_completion_handler (Some (fun () -> incr irqs));
  let w = B.Write { lba = 100; data = Bytes.make 2048 'w' } in
  Alcotest.(check int) "write submitted" 1 (d.B.submit [| w |]);
  (* Issued 1 us later, so the write completes first. *)
  Uksim.Clock.advance_ns clock 1_000.0;
  (match d.B.read_sync ~lba:3 ~sectors:1 with
  | Ok got -> Alcotest.(check bytes) "read got its own sectors" data got
  | Error e -> Alcotest.fail (B.error_to_string e));
  Alcotest.(check int) "the write's interrupt fired" 1 !irqs;
  match d.B.poll_completions ~max:8 with
  | [ c ] ->
      Alcotest.(check bool) "the write's completion is still queued" true (c.B.req == w);
      Alcotest.(check bool) "and succeeded" true (Result.is_ok c.B.result)
  | cs -> Alcotest.failf "%d completions queued, want the write's" (List.length cs)

let test_virtio_blk_queue_depth () =
  let clock, engine = env () in
  let d = V.create ~clock ~engine ~queue_depth:4 () in
  let reqs = Array.init 10 (fun i -> B.Read { lba = i; sectors = 1 }) in
  Alcotest.(check int) "bounded by queue depth" 4 (d.B.submit reqs)

let test_virtio_blk_latency_charged () =
  let clock, engine = env () in
  let d = V.create ~clock ~engine ~host_latency_ns:20_000.0 () in
  let s = Uksim.Clock.start clock in
  (match d.B.read_sync ~lba:0 ~sectors:1 with Ok _ -> () | Error _ -> Alcotest.fail "read");
  Alcotest.(check bool) "sync read pays the host latency" true
    (Uksim.Clock.elapsed_ns clock s >= 20_000.0)

let test_batch_amortizes_kick () =
  (* One kick per submit call: batching 32 requests beats 32 single
     submissions — the ukblock analogue of tx_burst batching. *)
  let cost n_calls batch =
    let clock, engine = env () in
    let d = V.create ~clock ~engine () in
    let s = Uksim.Clock.start clock in
    for _ = 1 to n_calls do
      ignore (d.B.submit (Array.init batch (fun i -> B.Read { lba = i; sectors = 1 })))
    done;
    Uksim.Clock.elapsed_cycles clock s
  in
  Alcotest.(check bool) "batched submit cheaper" true (cost 1 32 < cost 32 1)

(* --- the sparse medium ---------------------------------------------------- *)

let test_unwritten_reads_zero () =
  List.iter
    (fun (name, mk) ->
      let d = mk ~capacity_sectors:4096 in
      Alcotest.(check bytes) (name ^ ": a fresh device reads zeros") (Bytes.make (4096 * 512) '\000')
        (read_ok d ~lba:0 ~sectors:4096);
      write_ok d ~lba:1000 (pattern ~tag:1 1);
      Alcotest.(check bytes) (name ^ ": the sector before a write") (Bytes.make 512 '\000')
        (read_ok d ~lba:999 ~sectors:1);
      Alcotest.(check bytes) (name ^ ": the sector after it") (Bytes.make 512 '\000')
        (read_ok d ~lba:1001 ~sectors:1);
      Alcotest.(check bytes) (name ^ ": the far end") (Bytes.make 512 '\000')
        (read_ok d ~lba:4095 ~sectors:1))
    media

(* Writes that straddle, end on, fill or overlap the medium's 64-sector
   chunks, and reads that span written and never-written ones, against
   a flat model of the medium. *)
let test_straddling_round_trip () =
  List.iter
    (fun (name, mk) ->
      let cap = 512 in
      let d = mk ~capacity_sectors:cap in
      let model = Bytes.make (cap * 512) '\000' in
      let write ~lba ~sectors tag =
        let data = pattern ~tag sectors in
        write_ok d ~lba data;
        Bytes.blit data 0 model (lba * 512) (Bytes.length data)
      in
      write ~lba:63 ~sectors:2 1;
      write ~lba:127 ~sectors:1 2;
      write ~lba:190 ~sectors:70 3;
      write ~lba:256 ~sectors:64 4;
      write ~lba:300 ~sectors:8 5 (* over part of the last write *);
      write ~lba:(cap - 1) ~sectors:1 6;
      List.iter
        (fun (lba, sectors) ->
          Alcotest.(check bytes)
            (Printf.sprintf "%s: %d sectors from lba %d" name sectors lba)
            (Bytes.sub model (lba * 512) (sectors * 512))
            (read_ok d ~lba ~sectors))
        [ (0, cap); (62, 4); (64, 1); (100, 100); (127, 2); (255, 66); (319, 2); (400, cap - 400) ])
    media

(* A device allocates what is written to it, not its capacity: creating
   a 64 MiB one allocates well under 1 MiB. *)
let test_sparse_create_is_small () =
  List.iter
    (fun (name, mk) ->
      let before = Gc.allocated_bytes () in
      let d = Sys.opaque_identity (mk ~capacity_sectors:131072) in
      let spent = Gc.allocated_bytes () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f bytes allocated at create" name spent)
        true (spent < 1048576.0);
      ignore (Sys.opaque_identity d))
    media

(* --- TCP recovery over lossy virtio-net ---------------------------------- *)

(* A TCP transfer of [payload] between two stacks on virtio-net devices
   joined by a wire, each device wrapped in a Faultnet injector with
   [plan] (seeded from [seed]), so both directions lose and duplicate
   frames. The source sends [chunk]-byte pieces, then closes; the sink
   reads up to [recv_max] bytes at a time into the returned buffer.
   [Uksched.Sched.run] on the returned scheduler makes the transfer. The
   returned function counts the frames the injectors dropped. *)
let lossy_virtio_transfer ~seed ~chunk ~recv_max plan payload =
  let clock, engine = env () in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let wa, wb = Wire.create_pair ~engine () in
  let rng = Uksim.Rng.create seed in
  let mk wire rng ip mac =
    let dev =
      Uknetdev.Virtio_net.create ~clock ~engine ~backend:Uknetdev.Virtio_net.Vhost_net ~wire ()
    in
    let fn = Fn.wrap ~clock ~engine ~rng ~plan dev in
    let s =
      S.create ~clock ~engine ~sched ~dev:(Fn.dev fn)
        { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
          netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
    in
    (s, fn)
  in
  let server, fa = mk wa rng "10.1.0.1" 0x1 in
  let client, fb = mk wb (Uksim.Rng.split rng) "10.1.0.2" 0x2 in
  let received = Buffer.create (Bytes.length payload) in
  ignore
    (Uksched.Sched.spawn sched ~name:"sink" (fun () ->
         let l = S.Tcp_socket.listen server ~port:9 () in
         match S.Tcp_socket.accept ~block:true l with
         | None -> ()
         | Some flow ->
             let rec drain () =
               match S.Tcp_socket.recv ~block:true server flow ~max:recv_max with
               | None -> ()
               | Some b ->
                   Buffer.add_bytes received b;
                   drain ()
             in
             drain ()));
  ignore
    (Uksched.Sched.spawn sched ~name:"source" (fun () ->
         let flow = S.Tcp_socket.connect client ~dst:(A.Ipv4.of_string "10.1.0.1", 9) () in
         let sent = ref 0 in
         while !sent < Bytes.length payload do
           let piece = Bytes.sub payload !sent (min chunk (Bytes.length payload - !sent)) in
           sent := !sent + S.Tcp_socket.send ~block:true client flow piece
         done;
         S.Tcp_socket.close client flow));
  let dropped fn = Uktrace.Source.count (Fn.source fn) "dropped" in
  (sched, received, fun () -> dropped fa + dropped fb)

let test_tcp_over_lossy_virtio () =
  (* End-to-end: a TCP transfer across a 2%-loss, 1%-duplication link
     completes intact via retransmission, and both ends finish: a
     thread left blocked makes [Sched.run] raise Deadlock. *)
  let payload = Bytes.init 40_000 (fun i -> Char.chr (i land 0xff)) in
  let sched, received, injected_drops =
    lossy_virtio_transfer ~seed:3 ~chunk:8192 ~recv_max:8192
      (Fn.plan ~drop:0.02 ~duplicate:0.01 ()) payload
  in
  Uksched.Sched.run sched;
  Alcotest.(check int) "every byte arrived" (Bytes.length payload) (Buffer.length received);
  Alcotest.(check bytes) "in order and uncorrupted" payload (Buffer.to_bytes received);
  Alcotest.(check bool) "the link really dropped frames" true (injected_drops () > 0)

let tcp_lossy_prop =
  QCheck.Test.make ~name:"TCP delivers intact streams across random lossy links" ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 0 60))
    (fun (seed, loss_permille) ->
      let drop = float_of_int loss_permille /. 1000.0 in
      let payload = Bytes.init 8000 (fun i -> Char.chr ((i * 7) land 0xff)) in
      let sched, received, _ =
        lossy_virtio_transfer ~seed ~chunk:2048 ~recv_max:4096
          (Fn.plan ~drop ~duplicate:0.01 ()) payload
      in
      (match Uksched.Sched.run sched with
      | () -> ()
      | exception Uksched.Sched.Deadlock _ -> ()
      | exception Failure _ -> ());
      Bytes.equal payload (Buffer.to_bytes received))

(* Each device registers a uktrace source at create; that source must
   not keep the device (and its backing sectors) reachable. *)
let test_source_does_not_pin_device () =
  let collected = ref false in
  let create_and_drop () =
    let clock, _ = env () in
    Gc.finalise (fun _ -> collected := true) (V.create_ramdisk ~clock ~capacity_sectors:8 ())
  in
  create_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped ramdisk collected while its source is registered" true
    !collected

let suite =
  [
    Alcotest.test_case "ramdisk read/write" `Quick test_ramdisk_rw;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "virtio-blk async completion" `Quick test_virtio_blk_async;
    Alcotest.test_case "virtio-blk interrupts" `Quick test_virtio_blk_interrupt;
    Alcotest.test_case "sync read beside an async write" `Quick test_sync_read_beside_async_write;
    Alcotest.test_case "queue depth" `Quick test_virtio_blk_queue_depth;
    Alcotest.test_case "host latency charged" `Quick test_virtio_blk_latency_charged;
    Alcotest.test_case "batched submit amortizes kicks" `Quick test_batch_amortizes_kick;
    Alcotest.test_case "unwritten sectors read as zeros" `Quick test_unwritten_reads_zero;
    Alcotest.test_case "writes across chunk boundaries round-trip" `Quick
      test_straddling_round_trip;
    Alcotest.test_case "creating a 64 MiB device allocates under 1 MiB" `Quick
      test_sparse_create_is_small;
    Alcotest.test_case "registry source does not pin the device" `Quick
      test_source_does_not_pin_device;
    Alcotest.test_case "TCP recovers over lossy virtio link" `Quick test_tcp_over_lossy_virtio;
    QCheck_alcotest.to_alcotest tcp_lossy_prop;
  ]
