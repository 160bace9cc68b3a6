(* Tests for uknetdev: netbufs, pools, wire, virtio driver datapaths. *)

module Nb = Uknetdev.Netbuf
module Nd = Uknetdev.Netdev
module Wire = Uknetdev.Wire
module Vn = Uknetdev.Virtio_net

let count = Uktrace.Source.count

let env () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  (clock, engine)

let test_netbuf_push_pull () =
  let b = Nb.of_bytes (Bytes.of_string "payload") in
  Alcotest.(check int) "len" 7 (Nb.len b);
  Nb.push b 4;
  Alcotest.(check int) "pushed" 11 (Nb.len b);
  Nb.pull b 4;
  Alcotest.(check string) "payload restored" "payload" (Bytes.to_string (Nb.copy_out b));
  Alcotest.check_raises "over-pull" (Invalid_argument "Netbuf.pull: beyond payload") (fun () ->
      Nb.pull b 100)

let test_netbuf_headroom_limit () =
  let b = Nb.alloc ~headroom:8 ~size:16 () in
  Nb.push b 8;
  Alcotest.check_raises "headroom exhausted" (Invalid_argument "Netbuf.push: no headroom")
    (fun () -> Nb.push b 1)

let netbuf_roundtrip_prop =
  QCheck.Test.make ~name:"netbuf push/pull roundtrips payload" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 100)) (int_range 0 64))
    (fun (payload, n) ->
      let b = Nb.of_bytes (Bytes.of_string payload) in
      Nb.push b n;
      Nb.pull b n;
      Bytes.to_string (Nb.copy_out b) = payload)

let test_pool () =
  let clock, _ = env () in
  let p = Nb.Pool.create ~clock ~count:2 ~size:128 () in
  Alcotest.(check int) "initial" 2 (Nb.Pool.available p);
  let a = Option.get (Nb.Pool.take p) in
  let b = Option.get (Nb.Pool.take p) in
  Alcotest.(check bool) "exhausted" true (Nb.Pool.take p = None);
  Nb.recycle a;
  Nb.recycle b;
  Alcotest.(check int) "restored" 2 (Nb.Pool.available p)

let test_pool_backed_by_allocator () =
  (* An allocator-backed pool pays its backend for every cell at create,
     exactly as [count] allocations of a cell's size would, and its takes
     charge the backend nothing more. *)
  let backend () =
    let clock = Uksim.Clock.create () in
    (clock, Ukalloc.Tlsf.create ~clock ~base:(1 lsl 20) ~len:(1 lsl 20))
  in
  let charged (clock, a) =
    ( Uktrace.Source.level a.Ukalloc.Alloc.source "bytes_in_use",
      Uksim.Clock.cycles clock,
      count a.Ukalloc.Alloc.source "allocs" )
  in
  let reference = backend () in
  for _ = 1 to 16 do
    ignore (Ukalloc.Alloc.uk_malloc (snd reference) (1500 + 64))
  done;
  let backing = backend () in
  let clock, _ = env () in
  let p = Nb.Pool.create ~clock ~alloc:(snd backing) ~count:16 ~size:1500 () in
  let at_create = charged backing in
  let bytes, _, allocs = at_create in
  Alcotest.(check bool) "the backend holds the cells" true (bytes > 0.0);
  Alcotest.(check int) "backing allocations made" 16 allocs;
  Alcotest.(check (triple (float 0.0) int int)) "charged as 16 allocations of a cell"
    (charged reference) at_create;
  let bufs = List.init 16 (fun _ -> Option.get (Nb.Pool.take p)) in
  Alcotest.(check bool) "exhausted at count" true (Nb.Pool.take p = None);
  List.iter Nb.recycle bufs;
  ignore (Nb.Pool.take p);
  Alcotest.(check (triple (float 0.0) int int)) "takes charge the backend nothing" at_create
    (charged backing)

let test_recycle_goes_home () =
  (* [recycle] is the only way back: a cell returns to the pool it was
     taken from, whichever core drops it. *)
  let clock, _ = env () in
  let p1 = Nb.Pool.create ~clock ~count:1 ~size:64 () in
  let p2 = Nb.Pool.create ~clock ~count:1 ~size:64 () in
  let a = Option.get (Nb.Pool.take p1) in
  let b = Option.get (Nb.Pool.take p2) in
  Nb.recycle a;
  Alcotest.(check int) "home pool has the return" 1 (Nb.Pool.pending_returns p1);
  Alcotest.(check int) "other pool untouched" 0 (Nb.Pool.pending_returns p2);
  Alcotest.(check bool) "other pool still exhausted" true (Nb.Pool.take p2 = None);
  Alcotest.(check bool) "home pool serves again" true (Nb.Pool.take p1 <> None);
  Nb.recycle b;
  Alcotest.(check int) "each pool keeps its own cells" 1 (Nb.Pool.total p2)

let test_take_charges_the_taker () =
  (* The taker pays for the take and for draining the remote frees, on
     the clock it passes; the pool's own clock is only the default. *)
  let pool_clock, _ = env () in
  let taker = Uksim.Clock.create () in
  let p = Nb.Pool.create ~clock:pool_clock ~count:3 ~size:64 () in
  let bufs = List.init 3 (fun _ -> Option.get (Nb.Pool.take p)) in
  let take_cost = Uksim.Clock.cycles pool_clock / 3 in
  (* One return drained by a default-clock take prices a return. *)
  Nb.recycle (List.hd bufs);
  let t0 = Uksim.Clock.cycles pool_clock in
  let a = Option.get (Nb.Pool.take p) in
  let return_cost = Uksim.Clock.cycles pool_clock - t0 - take_cost in
  Alcotest.(check bool) "a return costs cycles" true (return_cost > 0);
  let t1 = Uksim.Clock.cycles pool_clock in
  List.iter Nb.recycle (a :: List.tl (List.tl bufs));
  Alcotest.(check int) "recycling is free" t1 (Uksim.Clock.cycles pool_clock);
  ignore (Nb.Pool.take ~clock:taker p);
  Alcotest.(check int) "pool clock not charged" t1 (Uksim.Clock.cycles pool_clock);
  Alcotest.(check int) "taker paid a take and two returns" (take_cost + (2 * return_cost))
    (Uksim.Clock.cycles taker);
  Alcotest.(check int) "returns drained" 0 (Nb.Pool.pending_returns p)

let test_pool_create_makes_no_cells () =
  (* A pool holds the cells its traffic has needed at once: creating
     one of 512 2 KiB cells makes none of their storage. *)
  let clock, _ = env () in
  let a0 = Gc.allocated_bytes () in
  let p = Nb.Pool.create ~clock ~count:512 ~size:2048 () in
  let made = Gc.allocated_bytes () -. a0 in
  Alcotest.(check bool) (Printf.sprintf "create allocates under 64 KiB (%.0f B)" made) true
    (made < 65536.0);
  Alcotest.(check (pair int int)) "all 512 cells counted" (512, 512)
    (Nb.Pool.total p, Nb.Pool.available p)

(* A model of one pool: every take (on the pool's own clock or on
   another core's), recycle and share is mirrored on a free stack of cell
   storages, a remote-free queue and a count of cells not handed out yet.
   A recycle is the same call on every core: the cell always goes through
   its home pool's remote-free list, and the next taker pays for it. *)
type pool_op = Take of bool (* on another core's clock *) | Recycle of int | Share of int

let pool_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun remote -> Take remote) bool);
        (3, map (fun i -> Recycle i) (int_bound 15));
        (1, map (fun i -> Share i) (int_bound 15));
      ])

let pool_op_print = function
  | Take remote -> if remote then "Take remote" else "Take"
  | Recycle i -> Printf.sprintf "Recycle %d" i
  | Share i -> Printf.sprintf "Share %d" i

(* The cycles [f] charges [clock], with its result. *)
let priced clock f =
  let c0 = Uksim.Clock.cycles clock in
  let v = f () in
  (v, Uksim.Clock.cycles clock - c0)

let pool_model_prop =
  QCheck.Test.make ~name:"pool matches its model over take/recycle/share" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (make ~print:(Print.list pool_op_print) Gen.(list_size (int_bound 60) pool_op_gen)))
    (fun (n, ops) ->
      (* The pool's take and return prices, read off a probe pool. *)
      let probe_clock = Uksim.Clock.create () in
      let probe = Nb.Pool.create ~clock:probe_clock ~count:1 ~size:64 () in
      let b, take_cost = priced probe_clock (fun () -> Option.get (Nb.Pool.take probe)) in
      Nb.recycle b;
      let _, take_and_return = priced probe_clock (fun () -> Nb.Pool.take probe) in
      let return_cost = take_and_return - take_cost in
      let own = Uksim.Clock.create () and other = Uksim.Clock.create () in
      let p = Nb.Pool.create ~clock:own ~count:n ~size:64 () in
      (* The model: live descriptors with their cell's storage, each
         storage's descriptor count, the free stack (top first), the
         remote-free queue, the cells not handed out yet, and every
         storage handed out so far. *)
      let out = ref [] and refs = ref [] in
      let free = ref [] and pending = Queue.create () and unmade = ref n and seen = ref [] in
      let refs_of st = List.assq st !refs in
      let set_refs st r = refs := (st, r) :: List.remove_assq st !refs in
      let consistent () =
        Nb.Pool.total p = n
        && Nb.Pool.available p = List.length !free + Queue.length pending + !unmade
        && Nb.Pool.pending_returns p = Queue.length pending
      in
      let hand_out d st =
        out := (d, st) :: !out;
        set_refs st 1
      in
      let step = function
        | Take remote ->
            let clock, idle = if remote then (other, own) else (own, other) in
            let idle0 = Uksim.Clock.cycles idle in
            let drained = Queue.length pending in
            let all_out = List.length !free + drained + !unmade = 0 in
            Queue.iter (fun st -> free := st :: !free) pending;
            Queue.clear pending;
            let got, cost = priced clock (fun () -> Nb.Pool.take ~clock p) in
            cost = take_cost + (drained * return_cost)
            && Uksim.Clock.cycles idle = idle0
            && begin
                 match (got, !free) with
                 | None, _ -> all_out
                 | Some d, st :: rest ->
                     (* LIFO: the last cell returned is the first reused. *)
                     free := rest;
                     hand_out d st;
                     Nb.data d == st
                 | Some d, [] ->
                     let st = Nb.data d in
                     let fresh = not (List.memq st !seen) in
                     decr unmade;
                     seen := st :: !seen;
                     hand_out d st;
                     (not all_out) && fresh
               end
        | Recycle _ | Share _ when !out = [] -> true
        | Recycle i ->
            (* The cell goes onto the remote-free list once its last
               descriptor is gone; recycling charges no clock. *)
            let d, st = List.nth !out (i mod List.length !out) in
            let (), own_cost = priced own (fun () -> Nb.recycle d) in
            out := List.filter (fun (d', _) -> d' != d) !out;
            let r = refs_of st - 1 in
            set_refs st r;
            if r = 0 then Queue.push st pending;
            own_cost = 0
        | Share i ->
            let d, st = List.nth !out (i mod List.length !out) in
            let d' = Nb.share d in
            out := (d', st) :: !out;
            set_refs st (refs_of st + 1);
            Nb.data d' == st
      in
      consistent () && List.for_all (fun op -> step op && consistent ()) ops)

let test_wire_delivery () =
  let clock, engine = env () in
  let a, b = Wire.create_pair ~engine ~latency_ns:1000.0 () in
  let got = ref [] in
  Wire.set_receiver b
    (Some
       (fun nb ->
         got := Bytes.to_string (Nb.copy_out nb) :: !got;
         Nb.recycle nb));
  Wire.send a (Nb.of_bytes (Bytes.of_string "one"));
  Wire.send a (Nb.of_bytes (Bytes.of_string "two"));
  Uksim.Engine.run engine;
  Alcotest.(check (list string)) "in order" [ "one"; "two" ] (List.rev !got);
  Alcotest.(check int) "tx counted" 2 (count (Wire.source a) "tx_frames");
  Alcotest.(check int) "rx counted" 2 (count (Wire.source b) "rx_frames");
  Alcotest.(check bool) "latency applied" true (Uksim.Clock.ns clock >= 1000.0)

let test_wire_serialization () =
  (* Frames serialize at line rate: bulk transfer time >> latency. *)
  let _, engine = env () in
  let a, b = Wire.create_pair ~engine ~latency_ns:0.0 ~bandwidth_gbps:10.0 () in
  Wire.attach_sink b;
  for _ = 1 to 1000 do
    Wire.send a (Nb.of_bytes (Bytes.make 1250 'x'))
  done;
  Uksim.Engine.run engine;
  let clock = Uksim.Engine.clock engine in
  (* 1000 * 1250B at 10Gb/s = 1ms *)
  Alcotest.(check bool)
    (Printf.sprintf "took %.0f ns" (Uksim.Clock.ns clock))
    true
    (Uksim.Clock.ns clock >= 0.99e6)

let test_wire_echo () =
  let _, engine = env () in
  let a, b = Wire.create_pair ~engine () in
  Wire.attach_echo b;
  let got = ref 0 in
  Wire.set_receiver a (Some (fun nb -> incr got; Nb.recycle nb));
  Wire.send a (Nb.of_bytes (Bytes.of_string "ping"));
  Uksim.Engine.run engine;
  Alcotest.(check int) "reflected" 1 !got

let mk_virtio ?(backend = Vn.Vhost_net) () =
  let clock, engine = env () in
  let a, b = Wire.create_pair ~engine ~latency_ns:1000.0 () in
  let dev = Vn.create ~clock ~engine ~backend ~wire:a () in
  (clock, engine, dev, b)

let test_virtio_tx_reaches_wire () =
  let _, engine, dev, peer = mk_virtio () in
  Wire.attach_sink peer;
  let pkts = Array.init 8 (fun i -> Nb.of_bytes (Bytes.make (64 + i) 'p')) in
  let sent = dev.Nd.tx_burst ~qid:0 pkts in
  Alcotest.(check int) "all accepted" 8 sent;
  Uksim.Engine.run engine;
  Alcotest.(check int) "frames on the wire" 8 (count (Wire.source peer) "rx_frames");
  Alcotest.(check int) "tx pkts" 8 (count dev.Nd.source "tx_pkts");
  Alcotest.(check bool) "vhost-net kicked" true (count dev.Nd.source "tx_kicks" >= 1)

let test_vhost_user_no_kicks () =
  let _, engine, dev, peer = mk_virtio ~backend:Vn.Vhost_user () in
  Wire.attach_sink peer;
  let pkts = Array.init 8 (fun _ -> Nb.of_bytes (Bytes.make 64 'p')) in
  ignore (dev.Nd.tx_burst ~qid:0 pkts);
  Uksim.Engine.run ~until:(Uksim.Clock.cycles (Uksim.Engine.clock engine) + 1_000_000) engine;
  Alcotest.(check int) "no VM exits" 0 (count dev.Nd.source "tx_kicks");
  Alcotest.(check int) "frames still flow" 8 (count (Wire.source peer) "rx_frames")

let test_virtio_rx_polling () =
  let clock, engine, dev, peer = mk_virtio () in
  dev.Nd.configure_queue ~qid:0
    { Nd.rx_path = Nd.Zero_copy; mode = Nd.Polling; rx_handler = None };
  Wire.send peer (Nb.of_bytes (Bytes.of_string "hello-guest"));
  Uksim.Engine.run engine;
  Uksim.Clock.advance clock 1;
  let pkts = dev.Nd.rx_burst ~qid:0 ~max:4 in
  Alcotest.(check int) "one packet" 1 (List.length pkts);
  (match pkts with
  | [ nb ] -> Alcotest.(check string) "payload intact" "hello-guest" (Bytes.to_string (Nb.copy_out nb))
  | _ -> Alcotest.fail "expected one");
  Alcotest.(check int) "no irqs in polling mode" 0 (count dev.Nd.source "rx_irqs")

let test_virtio_rx_interrupt_storm_avoidance () =
  let clock, engine, dev, peer = mk_virtio () in
  let irq_calls = ref 0 in
  dev.Nd.configure_queue ~qid:0
    {
      Nd.rx_path = Nd.Copy_into (fun () -> Some (Nb.alloc ~size:2048 ()));
      mode = Nd.Interrupt_driven;
      rx_handler = Some (fun () -> incr irq_calls);
    };
  (* Burst of frames before the guest drains: the line fires once. *)
  for i = 1 to 5 do
    Wire.send peer (Nb.of_bytes (Bytes.make (64 + i) 'z'))
  done;
  Uksim.Engine.run engine;
  Alcotest.(check int) "one interrupt for the burst" 1 !irq_calls;
  Uksim.Clock.advance clock 1;
  let pkts = dev.Nd.rx_burst ~qid:0 ~max:16 in
  Alcotest.(check int) "burst drained" 5 (List.length pkts);
  (* Ring empty -> re-armed: next frame interrupts again. *)
  Wire.send peer (Nb.of_bytes (Bytes.make 60 'w'));
  Uksim.Engine.run engine;
  Alcotest.(check int) "re-armed" 2 !irq_calls

let test_virtio_rx_drop_when_unconfigured () =
  let _, engine, dev, peer = mk_virtio () in
  Wire.send peer (Nb.of_bytes (Bytes.make 64 'q'));
  Uksim.Engine.run engine;
  Alcotest.(check int) "dropped" 1 (count dev.Nd.source "rx_dropped")

(* virtio-net is single-queue: queue 0 is its only queue, any other id is
   refused, and frames of flows that RSS would spread over four queues
   all land on queue 0 in arrival order (multi-queue RSS is Loopback's). *)
let test_virtio_single_queue () =
  let clock, engine, dev, peer = mk_virtio () in
  Alcotest.(check int) "one queue" 1 dev.Nd.max_queues;
  let cfg = { Nd.rx_path = Nd.Zero_copy; mode = Nd.Polling; rx_handler = None } in
  let bad = Invalid_argument "Virtio_net: bad queue id" in
  Alcotest.check_raises "configure queue 1" bad (fun () -> dev.Nd.configure_queue ~qid:1 cfg);
  Alcotest.check_raises "tx on queue 1" bad (fun () -> ignore (dev.Nd.tx_burst ~qid:1 [||]));
  Alcotest.check_raises "rx on queue 1" bad (fun () -> ignore (dev.Nd.rx_burst ~qid:1 ~max:1));
  Alcotest.check_raises "rx pending of queue 1" bad (fun () -> ignore (dev.Nd.rx_pending ~qid:1));
  Alcotest.check_raises "tx room of queue -1" bad (fun () -> ignore (dev.Nd.tx_room ~qid:(-1)));
  dev.Nd.configure_queue ~qid:0 cfg;
  (* TCP from 10.0.0.2:[sport] to 10.0.0.1:80. *)
  let frame sport =
    let b = Bytes.make 60 '\000' in
    Bytes.set_uint16_be b 12 0x0800;
    Bytes.set b 14 '\x45';
    Bytes.set b 23 '\x06';
    Bytes.set_int32_be b 26 0x0a000002l;
    Bytes.set_int32_be b 30 0x0a000001l;
    Bytes.set_uint16_be b 34 sport;
    Bytes.set_uint16_be b 36 80;
    b
  in
  let ports = List.init 8 (fun i -> 20000 + i) in
  let rss_queues =
    List.sort_uniq compare
      (List.filter_map (fun p -> Uknetdev.Rss.queue_of_frame (frame p) ~n_queues:4) ports)
  in
  Alcotest.(check bool) "RSS would spread the flows" true (List.length rss_queues > 1);
  List.iter (fun p -> Wire.send peer (Nb.of_bytes (frame p))) ports;
  Uksim.Engine.run engine;
  Uksim.Clock.advance clock 1;
  Alcotest.(check int) "all pending on queue 0" 8 (dev.Nd.rx_pending ~qid:0);
  let got = dev.Nd.rx_burst ~qid:0 ~max:16 in
  Alcotest.(check (list int)) "every flow, in arrival order" ports
    (List.map (fun nb -> Bytes.get_uint16_be (Nb.copy_out nb) 34) got);
  Alcotest.(check int) "nothing dropped" 0 (count dev.Nd.source "rx_dropped")

let test_virtio_ring_capacity () =
  let clock, engine = env () in
  let a, _b = Wire.create_pair ~engine () in
  let dev = Vn.create ~clock ~engine ~backend:Vn.Vhost_net ~wire:a ~ring_size:4 () in
  let pkts = Array.init 10 (fun _ -> Nb.of_bytes (Bytes.make 64 'r')) in
  let sent = dev.Nd.tx_burst ~qid:0 pkts in
  Alcotest.(check int) "bounded by ring" 4 sent

let test_loopback_pair () =
  let clock, engine = env () in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let cfg = { Nd.rx_path = Nd.Zero_copy; mode = Nd.Polling; rx_handler = None } in
  da.Nd.configure_queue ~qid:0 cfg;
  db.Nd.configure_queue ~qid:0 cfg;
  ignore (da.Nd.tx_burst ~qid:0 [| Nb.of_bytes (Bytes.of_string "x-to-y") |]);
  Uksim.Engine.run engine;
  Uksim.Clock.advance clock 1;
  let got = db.Nd.rx_burst ~qid:0 ~max:4 in
  Alcotest.(check int) "delivered" 1 (List.length got);
  Alcotest.(check int) "b rx counted" 1 (count db.Nd.source "rx_pkts")

let test_guest_costs_differ () =
  Alcotest.(check bool) "vhost-user cheaper per packet" true
    (Vn.guest_tx_cost Vn.Vhost_user < Vn.guest_tx_cost Vn.Vhost_net);
  Alcotest.(check bool) "host path: dpdk backend much faster" true
    (Vn.host_pkt_cost Vn.Vhost_user * 5 < Vn.host_pkt_cost Vn.Vhost_net)

let payloads = List.map (fun nb -> Bytes.to_string (Nb.copy_out nb))

let test_virtio_tx_ring_drains_fifo () =
  (* The TX queue is a bounded FIFO: the host drains it in order onto the
     wire, and draining gives the guest its room back. *)
  let clock, engine = env () in
  let a, b = Wire.create_pair ~engine () in
  let got = ref [] in
  Wire.set_receiver b
    (Some
       (fun nb ->
         got := Bytes.to_string (Nb.copy_out nb) :: !got;
         Nb.recycle nb));
  let dev = Vn.create ~clock ~engine ~backend:Vn.Vhost_net ~wire:a ~ring_size:4 () in
  let frames = Array.init 6 (fun i -> Nb.of_bytes (Bytes.of_string (string_of_int i))) in
  Alcotest.(check int) "ring takes four" 4 (dev.Nd.tx_burst ~qid:0 frames);
  Alcotest.(check int) "no room left" 0 (dev.Nd.tx_room ~qid:0);
  Uksim.Engine.run engine;
  Alcotest.(check int) "drained ring has room again" 4 (dev.Nd.tx_room ~qid:0);
  Alcotest.(check int) "the rejected two go next" 2 (dev.Nd.tx_burst ~qid:0 (Array.sub frames 4 2));
  Uksim.Engine.run engine;
  Alcotest.(check (list string)) "wire order is send order"
    [ "0"; "1"; "2"; "3"; "4"; "5" ] (List.rev !got)

(* --- Rxq: the device-side RX ring every driver runs ------------------------ *)

let polling path = { Nd.rx_path = path; mode = Nd.Polling; rx_handler = None }

let mk_rxq ?(ring_size = 4) ?(pkt_cost = 0) ?(rx_path = Nd.Zero_copy) () =
  let clock, engine = env () in
  let c = Nd.counters "rxq-test" in
  let q = Nd.Rxq.create c ~clock ~engine ~ring_size ~pkt_cost in
  Nd.Rxq.configure q (polling rx_path);
  (clock, engine, Nd.source c, q)

let frame s = Nb.of_bytes (Bytes.of_string s)

let test_rxq_fifo () =
  let _, _, src, q = mk_rxq () in
  List.iter (fun s -> Nd.Rxq.deliver q (frame s)) [ "a"; "bb"; "ccc" ];
  Alcotest.(check int) "queued" 3 (Nd.Rxq.pending q);
  Alcotest.(check (list string)) "arrival order" [ "a"; "bb"; "ccc" ]
    (payloads (Nd.Rxq.burst q ~max:8));
  Alcotest.(check int) "empty" 0 (Nd.Rxq.pending q);
  Alcotest.(check (list string)) "empty burst" [] (payloads (Nd.Rxq.burst q ~max:8));
  Alcotest.(check int) "rx_pkts" 3 (count src "rx_pkts");
  Alcotest.(check int) "rx_bytes" 6 (count src "rx_bytes")

let test_rxq_full_drops () =
  let clock, _, src, q = mk_rxq ~ring_size:2 () in
  let p = Nb.Pool.create ~clock ~count:3 ~size:64 () in
  let bufs = List.init 3 (fun _ -> Option.get (Nb.Pool.take p)) in
  List.iter (Nd.Rxq.deliver q) bufs;
  Alcotest.(check int) "ring holds its size" 2 (Nd.Rxq.pending q);
  Alcotest.(check int) "overflow counted" 1 (count src "rx_dropped");
  Alcotest.(check bool) "dropped frame recycled" false (Nb.live (List.nth bufs 2));
  Alcotest.(check int) "its cell went home" 1 (Nb.Pool.pending_returns p);
  (match Nd.Rxq.burst q ~max:1 with
  | [ nb ] -> Alcotest.(check bool) "oldest first" true (nb == List.hd bufs)
  | l -> Alcotest.failf "expected one frame, got %d" (List.length l));
  Nd.Rxq.deliver q (frame "again");
  Alcotest.(check int) "room again" 2 (Nd.Rxq.pending q);
  Alcotest.(check int) "no new drop" 1 (count src "rx_dropped")

let test_rxq_burst_max () =
  let _, _, src, q = mk_rxq ~ring_size:8 () in
  for i = 0 to 7 do
    Nd.Rxq.deliver q (frame (string_of_int i))
  done;
  Alcotest.(check (list string)) "first three" [ "0"; "1"; "2" ] (payloads (Nd.Rxq.burst q ~max:3));
  Alcotest.(check (list string)) "max 0 takes nothing" [] (payloads (Nd.Rxq.burst q ~max:0));
  Alcotest.(check int) "remaining" 5 (Nd.Rxq.pending q);
  Alcotest.(check int) "only dequeued frames counted" 3 (count src "rx_pkts")

let test_rxq_laps () =
  (* A small ring filled and drained for many laps keeps order and loses
     nothing. *)
  let _, _, src, q = mk_rxq ~ring_size:4 () in
  let wrong = ref 0 in
  for _ = 1 to 2_500 do
    let sent = List.init 4 (fun _ -> Nb.alloc ~size:8 ()) in
    List.iter (Nd.Rxq.deliver q) sent;
    if not (List.for_all2 ( == ) sent (Nd.Rxq.burst q ~max:4)) then incr wrong
  done;
  Alcotest.(check int) "every lap in order" 0 !wrong;
  Alcotest.(check int) "all received" 10_000 (count src "rx_pkts");
  Alcotest.(check int) "none dropped" 0 (count src "rx_dropped")

let test_rxq_copy_path () =
  (* Copy_into hands out the consumer's buffer and recycles the ring's;
     a failing allocation callback drops the frame. *)
  let budget = ref 1 in
  let rx_alloc () =
    if !budget = 0 then None
    else begin
      decr budget;
      Some (Nb.alloc ~size:64 ())
    end
  in
  let clock, _, src, q = mk_rxq ~rx_path:(Nd.Copy_into rx_alloc) () in
  let p = Nb.Pool.create ~clock ~count:2 ~size:64 () in
  let ring_bufs =
    List.map
      (fun s ->
        let nb = Option.get (Nb.Pool.take p) in
        Nb.copy_in nb (Bytes.of_string s);
        nb)
      [ "x"; "y" ]
  in
  List.iter (Nd.Rxq.deliver q) ring_bufs;
  let got = Nd.Rxq.burst q ~max:4 in
  Alcotest.(check (list string)) "copied frame only" [ "x" ] (payloads got);
  Alcotest.(check bool) "consumer's buffer, not the ring's" false
    (List.memq (List.hd got) ring_bufs);
  Alcotest.(check int) "both ring buffers recycled" 2 (Nb.Pool.pending_returns p);
  Alcotest.(check int) "allocation failure dropped" 1 (count src "rx_dropped");
  Alcotest.(check int) "one received" 1 (count src "rx_pkts")

let test_rxq_observes_device_progress () =
  (* [pending] and [burst] first run the device side up to the consumer's
     present, so a frame the engine delivers in the past is seen. *)
  let clock, engine, _, q = mk_rxq () in
  Uksim.Engine.at engine 100 (fun () -> Nd.Rxq.deliver q (frame "late"));
  Alcotest.(check int) "not arrived at cycle 0" 0 (Nd.Rxq.pending q);
  Uksim.Clock.advance clock 150;
  Alcotest.(check int) "arrived by cycle 150" 1 (Nd.Rxq.pending q);
  Alcotest.(check (list string)) "and received" [ "late" ] (payloads (Nd.Rxq.burst q ~max:4));
  Alcotest.(check int) "the consumer's clock did not move back" 150 (Uksim.Clock.cycles clock)

let test_rxq_charges_per_packet () =
  let clock, _, _, q = mk_rxq ~pkt_cost:88 () in
  for _ = 1 to 3 do
    Nd.Rxq.deliver q (frame "p")
  done;
  ignore (Nd.Rxq.burst q ~max:2);
  Alcotest.(check int) "two dequeued, two charged" 176 (Uksim.Clock.cycles clock);
  ignore (Nd.Rxq.burst q ~max:2);
  Alcotest.(check int) "the third" 264 (Uksim.Clock.cycles clock);
  ignore (Nd.Rxq.burst q ~max:2);
  Alcotest.(check int) "an empty burst is free" 264 (Uksim.Clock.cycles clock)

let rxq_counters = lazy (Nd.counters "rxq-model")

let rxq_model_prop =
  QCheck.Test.make ~name:"rxq behaves as a bounded FIFO queue" ~count:200
    QCheck.(list (int_range (-4) 4))
    (fun ops ->
      (* op >= 0 delivers a fresh frame; op < 0 bursts up to -op frames.
         The model is a Queue bounded by the ring size. *)
      let clock, engine = env () in
      let q = Nd.Rxq.create (Lazy.force rxq_counters) ~clock ~engine ~ring_size:8 ~pkt_cost:0 in
      Nd.Rxq.configure q (polling Nd.Zero_copy);
      let model = Queue.create () in
      List.for_all
        (fun op ->
          if op >= 0 then begin
            let nb = Nb.alloc ~size:8 () in
            Nd.Rxq.deliver q nb;
            if Queue.length model < 8 then begin
              Queue.push nb model;
              Nb.live nb
            end
            else not (Nb.live nb)
          end
          else
            let got = Nd.Rxq.burst q ~max:(-op) in
            let want = List.init (min (-op) (Queue.length model)) (fun _ -> Queue.pop model) in
            List.length got = List.length want && List.for_all2 ( == ) got want)
        ops
      && Nd.Rxq.pending q = Queue.length model)

let suite =
  [
    Alcotest.test_case "netbuf push/pull" `Quick test_netbuf_push_pull;
    Alcotest.test_case "netbuf headroom limit" `Quick test_netbuf_headroom_limit;
    QCheck_alcotest.to_alcotest netbuf_roundtrip_prop;
    Alcotest.test_case "netbuf pool" `Quick test_pool;
    Alcotest.test_case "pool backed by ukalloc" `Quick test_pool_backed_by_allocator;
    Alcotest.test_case "recycle returns a cell to its home pool" `Quick test_recycle_goes_home;
    Alcotest.test_case "pool take charges the taker's clock" `Quick test_take_charges_the_taker;
    Alcotest.test_case "pool create makes no cell storage" `Quick test_pool_create_makes_no_cells;
    QCheck_alcotest.to_alcotest pool_model_prop;
    Alcotest.test_case "wire delivery" `Quick test_wire_delivery;
    Alcotest.test_case "wire line-rate serialization" `Quick test_wire_serialization;
    Alcotest.test_case "wire echo" `Quick test_wire_echo;
    Alcotest.test_case "virtio tx to wire" `Quick test_virtio_tx_reaches_wire;
    Alcotest.test_case "vhost-user polls without exits" `Quick test_vhost_user_no_kicks;
    Alcotest.test_case "virtio rx polling" `Quick test_virtio_rx_polling;
    Alcotest.test_case "interrupt storm avoidance (§3.1)" `Quick
      test_virtio_rx_interrupt_storm_avoidance;
    Alcotest.test_case "rx drop when unconfigured" `Quick test_virtio_rx_drop_when_unconfigured;
    Alcotest.test_case "virtio-net is single-queue" `Quick test_virtio_single_queue;
    Alcotest.test_case "tx ring capacity" `Quick test_virtio_ring_capacity;
    Alcotest.test_case "tx ring drains in FIFO order" `Quick test_virtio_tx_ring_drains_fifo;
    Alcotest.test_case "rxq fifo order" `Quick test_rxq_fifo;
    Alcotest.test_case "rxq full ring drops and recycles" `Quick test_rxq_full_drops;
    Alcotest.test_case "rxq burst honours max" `Quick test_rxq_burst_max;
    Alcotest.test_case "rxq 10k frames in 4-slot laps" `Quick test_rxq_laps;
    Alcotest.test_case "rxq copy path" `Quick test_rxq_copy_path;
    Alcotest.test_case "rxq observes device progress" `Quick test_rxq_observes_device_progress;
    Alcotest.test_case "rxq charges per dequeued packet" `Quick test_rxq_charges_per_packet;
    QCheck_alcotest.to_alcotest rxq_model_prop;
    Alcotest.test_case "loopback pair" `Quick test_loopback_pair;
    Alcotest.test_case "backend cost model" `Quick test_guest_costs_differ;
  ]
