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
  Nb.Pool.give p a;
  Nb.Pool.give p b;
  Alcotest.(check int) "restored" 2 (Nb.Pool.available p);
  let foreign = Nb.alloc ~size:64 () in
  Alcotest.check_raises "foreign buffer rejected"
    (Invalid_argument "Netbuf.Pool.give: buffer does not belong to this pool") (fun () ->
      Nb.Pool.give p foreign)

let test_pool_backed_by_allocator () =
  let clock, _ = env () in
  let alloc = Ukalloc.Tlsf.create ~clock ~base:(1 lsl 20) ~len:(1 lsl 20) in
  let _ = Nb.Pool.create ~clock ~alloc ~count:16 ~size:1500 () in
  Alcotest.(check int) "backing allocations made" 16 (count alloc.Ukalloc.Alloc.source "allocs")

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

let suite =
  [
    Alcotest.test_case "netbuf push/pull" `Quick test_netbuf_push_pull;
    Alcotest.test_case "netbuf headroom limit" `Quick test_netbuf_headroom_limit;
    QCheck_alcotest.to_alcotest netbuf_roundtrip_prop;
    Alcotest.test_case "netbuf pool" `Quick test_pool;
    Alcotest.test_case "pool backed by ukalloc" `Quick test_pool_backed_by_allocator;
    Alcotest.test_case "wire delivery" `Quick test_wire_delivery;
    Alcotest.test_case "wire line-rate serialization" `Quick test_wire_serialization;
    Alcotest.test_case "wire echo" `Quick test_wire_echo;
    Alcotest.test_case "virtio tx to wire" `Quick test_virtio_tx_reaches_wire;
    Alcotest.test_case "vhost-user polls without exits" `Quick test_vhost_user_no_kicks;
    Alcotest.test_case "virtio rx polling" `Quick test_virtio_rx_polling;
    Alcotest.test_case "interrupt storm avoidance (§3.1)" `Quick
      test_virtio_rx_interrupt_storm_avoidance;
    Alcotest.test_case "rx drop when unconfigured" `Quick test_virtio_rx_drop_when_unconfigured;
    Alcotest.test_case "tx ring capacity" `Quick test_virtio_ring_capacity;
    Alcotest.test_case "loopback pair" `Quick test_loopback_pair;
    Alcotest.test_case "backend cost model" `Quick test_guest_costs_differ;
  ]
