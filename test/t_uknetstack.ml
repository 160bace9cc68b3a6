(* Tests for the network stack: addresses, checksums, header codecs,
   the TCP engine (including loss recovery, driven through a fake io),
   and full-stack integration over loopback devices. *)

module A = Uknetstack.Addr
module W = Uknetstack.Wire_fmt
module P = Uknetstack.Pkt
module Tcp = Uknetstack.Tcp
module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf

let test_mac () =
  let m = A.Mac.of_string "aa:bb:cc:dd:ee:ff" in
  Alcotest.(check string) "roundtrip" "aa:bb:cc:dd:ee:ff" (A.Mac.to_string m);
  Alcotest.(check bool) "broadcast" true (A.Mac.is_broadcast A.Mac.broadcast);
  Alcotest.check_raises "bad syntax" (Invalid_argument "Mac.of_string: nope") (fun () ->
      ignore (A.Mac.of_string "nope"))

let test_ipv4_addr () =
  let ip = A.Ipv4.of_string "10.1.2.3" in
  Alcotest.(check string) "roundtrip" "10.1.2.3" (A.Ipv4.to_string ip);
  Alcotest.(check bool) "same subnet" true
    (A.Ipv4.same_subnet ip (A.Ipv4.of_string "10.1.2.200")
       ~netmask:(A.Ipv4.of_string "255.255.255.0"));
  Alcotest.(check bool) "different subnet" false
    (A.Ipv4.same_subnet ip (A.Ipv4.of_string "10.1.3.1")
       ~netmask:(A.Ipv4.of_string "255.255.255.0"));
  Alcotest.check_raises "bad octet" (Invalid_argument "Ipv4.of_string: 1.2.3.999") (fun () ->
      ignore (A.Ipv4.of_string "1.2.3.999"))

let test_checksum_rfc1071 () =
  (* Classic example: checksum over its own result verifies to 0. *)
  let b = Bytes.of_string "\x45\x00\x00\x3c\x1c\x46\x40\x00\x40\x06\x00\x00\xac\x10\x0a\x63\xac\x10\x0a\x0c" in
  let c = W.checksum b ~off:0 ~len:20 in
  W.set_u16 b 10 c;
  Alcotest.(check int) "self-verifies" 0 (W.checksum b ~off:0 ~len:20)

let test_checksum_odd_length () =
  let b = Bytes.of_string "abc" in
  let c = W.checksum b ~off:0 ~len:3 in
  Alcotest.(check bool) "16-bit" true (c >= 0 && c <= 0xffff)

(* RFC 1071 byte by byte: big-endian 16-bit words, an odd last byte
   padded with a zero low byte, carries folded, complemented. The
   reference the word-wise [W.checksum] must match. *)
let ref_checksum ~initial b ~off ~len =
  let s = ref initial in
  for i = 0 to len - 1 do
    let v = Char.code (Bytes.get b (off + i)) in
    s := !s + if i land 1 = 0 then v lsl 8 else v
  done;
  let rec fold s = if s > 0xffff then fold ((s land 0xffff) + (s lsr 16)) else s in
  lnot (fold !s) land 0xffff

(* A buffer as runs of 0x00, of 0xff and of arbitrary bytes, padded with
   arbitrary bytes to at least 107, and an [initial] that is 0, 0xffff,
   any 16-bit value, or a TCP/UDP pseudo-header's unfolded word sum as
   [Pkt] computes it. Every [off] is checked, each with every [len] up to
   24 and with the whole rest of the buffer; [off] 0 to 7 also with every
   [len] up to 100. That covers zero to three 32-byte blocks, each
   followed by every tail of 8-byte words, a 16-bit word and an odd
   byte. *)
let checksum_matches_reference_prop =
  let run =
    QCheck.Gen.(
      pair (int_bound 2) (int_range 1 64) >>= fun (kind, n) ->
      match kind with
      | 0 -> return (String.make n '\x00')
      | 1 -> return (String.make n '\xff')
      | _ -> string_size ~gen:char (return n))
  in
  let min_len = 7 + 100 in
  let buffer =
    QCheck.Gen.(
      map2
        (fun runs pad ->
          let s = String.concat "" runs in
          let n = String.length s in
          if n >= min_len then s else s ^ String.sub pad 0 (min_len - n))
        (list_size (int_bound 6) run)
        (string_size ~gen:char (return min_len)))
  in
  let pseudo =
    QCheck.Gen.(
      map
        (fun (s, d, udp, len) ->
          (s lsr 16) + (s land 0xffff) + (d lsr 16) + (d land 0xffff)
          + (if udp then 17 else 6) + len)
        (quad (int_bound 0xffff_ffff) (int_bound 0xffff_ffff) bool (int_bound 0xffff)))
  in
  let initial = QCheck.Gen.(oneof [ return 0; return 0xffff; int_bound 0xffff; pseudo ]) in
  QCheck.Test.make ~name:"checksum equals the byte-wise RFC 1071 reference" ~count:150
    QCheck.(
      make
        ~print:(fun (b, i) -> Printf.sprintf "initial=%d buf=%S" i b)
        Gen.(pair buffer initial))
    (fun (str, initial) ->
      let b = Bytes.of_string str in
      let n = Bytes.length b in
      let ok = ref true in
      for off = 0 to n do
        let check len =
          if W.checksum ~initial b ~off ~len <> ref_checksum ~initial b ~off ~len then
            ok := false
        in
        for len = 0 to min (if off < 8 then 100 else 24) (n - off) do
          check len
        done;
        check (n - off)
      done;
      !ok)

let test_checksum_range () =
  let b = Bytes.make 16 'x' in
  let bad name ~off ~len =
    Alcotest.check_raises name (Invalid_argument "Wire_fmt.checksum") (fun () ->
        ignore (W.checksum b ~off ~len))
  in
  bad "negative off" ~off:(-1) ~len:4;
  bad "negative len" ~off:0 ~len:(-1);
  bad "past the end" ~off:9 ~len:8;
  bad "past the end from 0" ~off:0 ~len:17;
  Alcotest.(check int) "empty range at the end" 0xffff (W.checksum b ~off:16 ~len:0)

let test_eth_roundtrip () =
  let nb = Nb.of_bytes (Bytes.of_string "data") in
  let hdr = { P.Eth.dst = A.Mac.of_int 0x112233445566; src = A.Mac.of_int 0x665544332211;
              proto = P.Eth.Ipv4 } in
  P.Eth.encode hdr nb;
  match P.Eth.decode nb with
  | Error e -> Alcotest.fail e
  | Ok h ->
      Alcotest.(check bool) "dst" true (A.Mac.equal h.P.Eth.dst hdr.P.Eth.dst);
      Alcotest.(check bool) "src" true (A.Mac.equal h.P.Eth.src hdr.P.Eth.src);
      Alcotest.(check string) "payload" "data" (Bytes.to_string (Nb.copy_out nb))

let test_arp_roundtrip () =
  let nb = Nb.alloc ~size:64 () in
  let a =
    { P.Arp.op = P.Arp.Request; sha = A.Mac.of_int 1; spa = A.Ipv4.of_string "10.0.0.1";
      tha = A.Mac.broadcast; tpa = A.Ipv4.of_string "10.0.0.2" }
  in
  P.Arp.encode a nb;
  match P.Arp.decode nb with
  | Error e -> Alcotest.fail e
  | Ok got ->
      Alcotest.(check bool) "op" true (got.P.Arp.op = P.Arp.Request);
      Alcotest.(check string) "tpa" "10.0.0.2" (A.Ipv4.to_string got.P.Arp.tpa)

let ipv4_roundtrip payload_str =
  let nb = Nb.of_bytes (Bytes.of_string payload_str) in
  let hdr =
    P.Ipv4.header ~src:(A.Ipv4.of_string "1.2.3.4") ~dst:(A.Ipv4.of_string "5.6.7.8")
      ~proto:P.Ipv4.Udp ~payload_len:(Nb.len nb)
  in
  P.Ipv4.encode hdr nb;
  match P.Ipv4.decode nb with
  | Error e -> Error e
  | Ok h -> Ok (h, Bytes.to_string (Nb.copy_out nb))

let test_ipv4_roundtrip () =
  match ipv4_roundtrip "the-payload" with
  | Error e -> Alcotest.fail e
  | Ok (h, payload) ->
      Alcotest.(check string) "src" "1.2.3.4" (A.Ipv4.to_string h.P.Ipv4.src);
      Alcotest.(check string) "payload" "the-payload" payload

let test_ipv4_checksum_rejected () =
  let nb = Nb.of_bytes (Bytes.of_string "x") in
  let hdr =
    P.Ipv4.header ~src:(A.Ipv4.of_string "1.2.3.4") ~dst:(A.Ipv4.of_string "5.6.7.8")
      ~proto:P.Ipv4.Udp ~payload_len:1
  in
  P.Ipv4.encode hdr nb;
  (* Corrupt one header byte. *)
  Bytes.set (Nb.data nb) (Nb.offset nb + 8) '\x13';
  match P.Ipv4.decode nb with
  | Error "ipv4: bad header checksum" -> ()
  | Error e -> Alcotest.failf "wrong error: %s" e
  | Ok _ -> Alcotest.fail "corrupted header accepted"

let udp_tcp_roundtrip_prop =
  QCheck.Test.make ~name:"udp+tcp codecs roundtrip random payloads" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 1200))
    (fun payload ->
      let src = A.Ipv4.of_string "10.0.0.1" and dst = A.Ipv4.of_string "10.0.0.2" in
      let nb = Nb.alloc ~headroom:128 ~size:1400 () in
      Nb.copy_in nb (Bytes.of_string payload);
      P.Udp.encode { P.Udp.src_port = 1234; dst_port = 80 } ~src ~dst nb;
      let udp_ok =
        match P.Udp.decode ~src ~dst nb with
        | Ok { P.Udp.src_port = 1234; dst_port = 80 } ->
            Bytes.to_string (Nb.copy_out nb) = payload
        | Ok _ | Error _ -> false
      in
      let nb2 = Nb.alloc ~headroom:128 ~size:1400 () in
      Nb.copy_in nb2 (Bytes.of_string payload);
      P.Tcp.encode
        { P.Tcp.src_port = 5; dst_port = 6; seq = 12345; ack = 999; syn = false;
          ack_flag = true; fin = false; rst = false; psh = true; window = 4096 }
        ~src ~dst nb2;
      let tcp_ok =
        match P.Tcp.decode ~src ~dst nb2 with
        | Ok h ->
            h.P.Tcp.seq = 12345 && h.P.Tcp.ack = 999 && h.P.Tcp.psh
            && Bytes.to_string (Nb.copy_out nb2) = payload
        | Error _ -> false
      in
      udp_ok && tcp_ok)

(* --- TCP engine with a fake io (loss injection, timers) ------------------- *)

type fake_net = {
  clock : Uksim.Clock.t;
  mutable sent : (Tcp.conn * P.Tcp.t * bytes) list; (* reversed *)
  mutable timers : (Tcp.conn * int) list; (* set and not yet cancelled *)
  mutable drop_next : int; (* drop this many upcoming segments *)
  mutable rexmits : int;
  mutable fast_rexmits : int;
}

let fake_io net : Tcp.io =
  {
    Tcp.now_cycles = (fun () -> Uksim.Clock.cycles net.clock);
    charge = (fun c -> Uksim.Clock.advance net.clock c);
    tx_segment =
      (fun conn hdr payload ->
        (* Materialize either payload flavour to bytes: the fake wire is a
           bytes-era test edge, and dropped netbufs must still be recycled. *)
        let data =
          match payload with
          | Tcp.Tx_bytes b -> b
          | Tcp.Tx_netbuf nb ->
              let b = Nb.copy_out nb in
              Nb.recycle nb;
              b
        in
        if net.drop_next > 0 then net.drop_next <- net.drop_next - 1
        else net.sent <- (conn, hdr, data) :: net.sent);
    set_timer =
      (fun conn ~delay_cycles ->
        let timer = (conn, Uksim.Clock.cycles net.clock + delay_cycles) in
        net.timers <- timer :: net.timers;
        fun () -> net.timers <- List.filter (fun t -> t != timer) net.timers);
    timer_closed = ignore;
    wake = (fun _ -> ());
    retransmitted =
      (fun ~fast ->
        if fast then net.fast_rexmits <- net.fast_rexmits + 1
        else net.rexmits <- net.rexmits + 1);
    notify_accept = (fun _ -> ());
  }

let mk_fake () =
  let clock = Uksim.Clock.create () in
  { clock; sent = []; timers = []; drop_next = 0; rexmits = 0; fast_rexmits = 0 }

let take_sent net =
  let s = List.rev net.sent in
  net.sent <- [];
  s

(* Wire two TCP engines together in-memory, with optional loss. *)
let deliver_all neta netb conn_a conn_b =
  let rec pump () =
    let from_a = take_sent neta and from_b = take_sent netb in
    List.iter (fun (_, hdr, payload) -> Tcp.on_segment_nb conn_b hdr (Nb.of_bytes payload)) from_a;
    List.iter (fun (_, hdr, payload) -> Tcp.on_segment_nb conn_a hdr (Nb.of_bytes payload)) from_b;
    if neta.sent <> [] || netb.sent <> [] then pump ()
  in
  pump ()

let handshake () =
  let neta = mk_fake () and netb = mk_fake () in
  let client =
    Tcp.create_active (fake_io neta) ~local:(A.Ipv4.of_string "10.0.0.1", 100)
      ~remote:(A.Ipv4.of_string "10.0.0.2", 200) ~iss:1000
  in
  (* Server side: take the SYN, derive the passive conn. *)
  let listener = Tcp.create_listen (fake_io netb) ~local:(A.Ipv4.of_string "10.0.0.2", 200) in
  let syn = match take_sent neta with [ (_, h, _) ] -> h | _ -> failwith "expected SYN" in
  let server =
    Tcp.derive_passive listener ~remote:(A.Ipv4.of_string "10.0.0.1", 100) ~iss:5000
      ~peer_seq:syn.P.Tcp.seq
  in
  deliver_all neta netb client server;
  (neta, netb, client, server)

let test_tcp_handshake () =
  let _, _, client, server = handshake () in
  Alcotest.(check string) "client established" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state client));
  Alcotest.(check string) "server established" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state server))

let test_tcp_data_transfer () =
  let neta, netb, client, server = handshake () in
  let n = Tcp.send client (Bytes.of_string "hello tcp") in
  Alcotest.(check int) "all queued" 9 n;
  deliver_all neta netb client server;
  Alcotest.(check (option string)) "received in order" (Some "hello tcp")
    (Option.map Bytes.to_string (Tcp.recv server ~max:100));
  Alcotest.(check int) "the ACK cancelled the retransmit timer" 0 (List.length neta.timers)

let test_tcp_large_transfer_segments () =
  let neta, netb, client, server = handshake () in
  let data = Bytes.make 10000 'd' in
  ignore (Tcp.send client data);
  deliver_all neta netb client server;
  let buf = Buffer.create 10000 in
  let rec drain () =
    match Tcp.recv server ~max:4096 with
    | Some b ->
        Buffer.add_bytes buf b;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all bytes arrive across segments" 10000 (Buffer.length buf)

let test_tcp_retransmission () =
  let neta, netb, client, server = handshake () in
  neta.drop_next <- 1;
  ignore (Tcp.send client (Bytes.of_string "lost-once"));
  deliver_all neta netb client server;
  Alcotest.(check int) "nothing arrived yet" 0 (Tcp.recv_available server);
  (* Fire the retransmission timer. *)
  Uksim.Clock.advance neta.clock (Uksim.Clock.cycles_of_ns 3e8);
  Tcp.on_timer client;
  deliver_all neta netb client server;
  Alcotest.(check (option string)) "recovered" (Some "lost-once")
    (Option.map Bytes.to_string (Tcp.recv server ~max:100));
  Alcotest.(check int) "one retransmit counted" 1 neta.rexmits;
  Alcotest.(check int) "no timer left set" 0 (List.length neta.timers)

(* An ACK that leaves data in flight re-arms the retransmit timer; the
   re-arm cancels the timer it replaces, so only one is ever set. *)
let test_tcp_rearm_cancels () =
  let neta, netb, client, server = handshake () in
  ignore (Tcp.send client (Bytes.make (3 * Tcp.mss) 'r'));
  let segs = take_sent neta in
  Alcotest.(check int) "three segments in flight" 3 (List.length segs);
  List.iter
    (fun (_, hdr, payload) ->
      Tcp.on_segment_nb server hdr (Nb.of_bytes payload);
      List.iter (fun (_, h, p) -> Tcp.on_segment_nb client h (Nb.of_bytes p)) (take_sent netb);
      Alcotest.(check bool) "at most one timer set" true (List.length neta.timers <= 1))
    segs;
  Alcotest.(check int) "all acknowledged: no timer set" 0 (List.length neta.timers)

let test_tcp_fast_retransmit () =
  let neta, netb, client, server = handshake () in
  (* Drop the first of two segments: the second triggers dup ACKs. *)
  neta.drop_next <- 1;
  ignore (Tcp.send client (Bytes.make 1460 'a'));
  ignore (Tcp.send client (Bytes.make 100 'b'));
  deliver_all neta netb client server;
  (* Generate the remaining dup ACKs by re-delivering the out-of-order
     segment responses; three dupacks trigger fast retransmit. *)
  ignore (Tcp.send client (Bytes.make 10 'c'));
  deliver_all neta netb client server;
  ignore (Tcp.send client (Bytes.make 10 'd'));
  deliver_all neta netb client server;
  Alcotest.(check bool) "fast retransmit fired" true (neta.fast_rexmits >= 1);
  (* The out-of-order segments behind the hole were dropped by the
     receiver (no SACK); RTO rounds recover them one at a time. *)
  for _ = 1 to 4 do
    Uksim.Clock.advance neta.clock (Uksim.Clock.cycles_of_ns 2e9);
    Tcp.on_timer client;
    deliver_all neta netb client server
  done;
  Alcotest.(check int) "stream fully recovered" (1460 + 100 + 10 + 10)
    (Tcp.recv_available server)

(* A pipelined request/reply exchange: the client sends eight requests
   back to back, so each carries the same ACK, and the server answers
   each one as it arrives, so its replies are in flight when the later
   requests land. Those requests repeat the server's [snd_una] but carry
   data, and RFC 5681 §2 does not count them as duplicate ACKs. *)
let test_tcp_pipelined_data_is_not_dupack () =
  let neta, netb, client, server = handshake () in
  let requests = List.init 8 (Printf.sprintf "req-%d") in
  List.iter (fun r -> ignore (Tcp.send client (Bytes.of_string r))) requests;
  let segs = take_sent neta in
  Alcotest.(check int) "one segment per request" 8 (List.length segs);
  Alcotest.(check int) "every request repeats one ACK" 1
    (List.length (List.sort_uniq compare (List.map (fun (_, h, _) -> h.P.Tcp.ack) segs)));
  List.iter
    (fun (_, hdr, payload) ->
      Tcp.on_segment_nb server hdr (Nb.of_bytes payload);
      match Tcp.recv server ~max:100 with
      | Some r -> ignore (Tcp.send server (Bytes.cat (Bytes.of_string "ok:") r))
      | None -> Alcotest.fail "request not delivered")
    segs;
  Alcotest.(check int) "no fast retransmit" 0 netb.fast_rexmits;
  deliver_all neta netb client server;
  Alcotest.(check (option string)) "every reply once, in order"
    (Some (String.concat "" (List.map (( ^ ) "ok:") requests)))
    (Option.map Bytes.to_string (Tcp.recv client ~max:1000));
  Alcotest.(check int) "still none after the replies are acknowledged" 0
    (netb.fast_rexmits + netb.rexmits)

let test_tcp_close_sequence () =
  let neta, netb, client, server = handshake () in
  Tcp.close client;
  deliver_all neta netb client server;
  Alcotest.(check string) "client FIN_WAIT_2" "FIN_WAIT_2"
    (Tcp.state_to_string (Tcp.state client));
  Alcotest.(check string) "server CLOSE_WAIT" "CLOSE_WAIT"
    (Tcp.state_to_string (Tcp.state server));
  Alcotest.(check bool) "server sees EOF" true (Tcp.recv_eof server);
  Tcp.close server;
  deliver_all neta netb client server;
  Alcotest.(check string) "server closed" "CLOSED" (Tcp.state_to_string (Tcp.state server));
  Alcotest.(check string) "client TIME_WAIT" "TIME_WAIT"
    (Tcp.state_to_string (Tcp.state client));
  (* 2MSL expiry. *)
  Uksim.Clock.advance neta.clock (Uksim.Clock.cycles_of_ns 3e9);
  Tcp.on_timer client;
  Alcotest.(check string) "client closed after 2MSL" "CLOSED"
    (Tcp.state_to_string (Tcp.state client))

let test_tcp_rst () =
  let neta, netb, client, server = handshake () in
  Tcp.abort client;
  deliver_all neta netb client server;
  Alcotest.(check string) "client closed" "CLOSED" (Tcp.state_to_string (Tcp.state client));
  Alcotest.(check string) "server closed by RST" "CLOSED"
    (Tcp.state_to_string (Tcp.state server))

let test_tcp_flow_control () =
  let neta, netb, client, server = handshake () in
  (* Fill beyond the receiver window (64KB): sender must stall, not lose. *)
  let total = 200_000 in
  let sent = ref 0 in
  while !sent < total do
    let n = Tcp.send client (Bytes.make (min 8192 (total - !sent)) 'f') in
    deliver_all neta netb client server;
    if n = 0 then
      (* Send buffer/window full: drain the receiver to reopen it. *)
      ignore (Tcp.recv server ~max:65536)
    else sent := !sent + n;
    deliver_all neta netb client server
  done;
  let rec drain acc =
    match Tcp.recv server ~max:65536 with
    | Some b ->
        deliver_all neta netb client server;
        drain (acc + Bytes.length b)
    | None -> acc
  in
  let drained = drain 0 in
  Alcotest.(check bool) "no bytes lost under backpressure" true (drained > 0);
  Alcotest.(check int) "sender accounted everything" total !sent

(* --- IPv4 fragmentation / reassembly ---------------------------------------- *)

module Frag = Uknetstack.Frag

let test_frag_out_of_order () =
  let clock = Uksim.Clock.create () in
  let f = Frag.create ~clock () in
  let src = A.Ipv4.of_string "10.0.0.9" in
  let chunk s len = Bytes.make len s in
  (* Three fragments delivered tail-first. *)
  (match Frag.insert f ~src ~id:7 ~proto:17 ~frag_offset:16 ~more_frags:false (chunk 'c' 4) with
  | Frag.Pending -> ()
  | _ -> Alcotest.fail "tail alone must be pending");
  (match Frag.insert f ~src ~id:7 ~proto:17 ~frag_offset:8 ~more_frags:true (chunk 'b' 8) with
  | Frag.Pending -> ()
  | _ -> Alcotest.fail "middle must be pending");
  match Frag.insert f ~src ~id:7 ~proto:17 ~frag_offset:0 ~more_frags:true (chunk 'a' 8) with
  | Frag.Complete payload ->
      Alcotest.(check string) "reassembled in order" "aaaaaaaabbbbbbbbcccc"
        (Bytes.to_string payload);
      Alcotest.(check int) "completed counted" 1 (Frag.completed f)
  | _ -> Alcotest.fail "should complete"

let test_frag_duplicates_ok () =
  let clock = Uksim.Clock.create () in
  let f = Frag.create ~clock () in
  let src = A.Ipv4.of_string "10.0.0.9" in
  ignore (Frag.insert f ~src ~id:1 ~proto:17 ~frag_offset:0 ~more_frags:true (Bytes.make 8 'x'));
  ignore (Frag.insert f ~src ~id:1 ~proto:17 ~frag_offset:0 ~more_frags:true (Bytes.make 8 'x'));
  match Frag.insert f ~src ~id:1 ~proto:17 ~frag_offset:8 ~more_frags:false (Bytes.make 2 'y') with
  | Frag.Complete p -> Alcotest.(check int) "length" 10 (Bytes.length p)
  | _ -> Alcotest.fail "duplicates must not block completion"

let test_frag_teardrop_rejected () =
  (* Same offset, different length: the classic inconsistent overlap. *)
  let clock = Uksim.Clock.create () in
  let f = Frag.create ~clock () in
  let src = A.Ipv4.of_string "10.0.0.9" in
  ignore (Frag.insert f ~src ~id:2 ~proto:17 ~frag_offset:0 ~more_frags:true (Bytes.make 8 'x'));
  match Frag.insert f ~src ~id:2 ~proto:17 ~frag_offset:0 ~more_frags:true (Bytes.make 16 'z') with
  | Frag.Rejected _ -> ()
  | _ -> Alcotest.fail "inconsistent overlap accepted"

let test_frag_expiry () =
  let clock = Uksim.Clock.create () in
  let f = Frag.create ~clock ~timeout_ns:1000.0 () in
  let src = A.Ipv4.of_string "10.0.0.9" in
  ignore (Frag.insert f ~src ~id:3 ~proto:17 ~frag_offset:0 ~more_frags:true (Bytes.make 8 'x'));
  Alcotest.(check int) "pending" 1 (Frag.pending_datagrams f);
  Uksim.Clock.advance_ns clock 5000.0;
  Frag.expire f;
  Alcotest.(check int) "expired" 0 (Frag.pending_datagrams f);
  Alcotest.(check int) "counted" 1 (Frag.expired f)

let test_udp_fragmentation_end_to_end () =
  (* A 5000-byte datagram: fragmented at the sender's IP layer (4 frames
     on the wire), reassembled at the receiver, delivered whole. *)
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let s1 = mk da "10.0.0.1" 0x1 in
  let s2 = mk db "10.0.0.2" 0x2 in
  let payload = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
  let got = ref None in
  ignore
    (Uksched.Sched.spawn sched ~name:"rx" (fun () ->
         let sock = S.Udp_socket.bind s1 ~port:777 in
         match S.Udp_socket.recvfrom ~block:true sock with
         | Some (_, _, data) -> got := Some data
         | None -> ()));
  ignore
    (Uksched.Sched.spawn sched ~name:"tx" (fun () ->
         let sock = S.Udp_socket.bind s2 ~port:778 in
         S.Udp_socket.sendto sock ~dst:(A.Ipv4.of_string "10.0.0.1", 777) payload));
  Uksched.Sched.run sched;
  (match !got with
  | Some data -> Alcotest.(check bytes) "whole datagram delivered" payload data
  | None -> Alcotest.fail "datagram lost");
  (* The wire really carried fragments: > 1 frame for one datagram (plus
     one ARP exchange). *)
  let tx = Uktrace.Source.count (S.source s2) "tx_pkts" in
  Alcotest.(check bool) (Printf.sprintf "fragmented on the wire (%d frames)" tx) true (tx >= 4)

let frag_random_order_prop =
  QCheck.Test.make ~name:"frag: any arrival order (with duplicates) reassembles" ~count:100
    QCheck.(pair (int_range 1 40) (int_range 0 10000))
    (fun (n_frags, seed) ->
      let clock = Uksim.Clock.create () in
      let f = Frag.create ~clock () in
      let src = A.Ipv4.of_string "10.0.0.9" in
      (* Build a datagram of [n_frags] 8-byte fragments with recognizable
         contents, shuffle the arrival order, duplicate a few. *)
      let payload = Bytes.init (n_frags * 8) (fun i -> Char.chr ((i * 13) land 0xff)) in
      let frags =
        Array.init n_frags (fun i ->
            (i * 8, Bytes.sub payload (i * 8) 8, i < n_frags - 1))
      in
      let rng = Uksim.Rng.create seed in
      Uksim.Rng.shuffle rng frags;
      let completed = ref None in
      Array.iteri
        (fun idx (off, chunk, mf) ->
          let feed () =
            match Frag.insert f ~src ~id:99 ~proto:17 ~frag_offset:off ~more_frags:mf chunk with
            | Frag.Complete p -> completed := Some p
            | Frag.Pending -> ()
            | Frag.Rejected e -> failwith e
          in
          feed ();
          (* Duplicate roughly every third fragment (unless already done). *)
          if !completed = None && idx mod 3 = 0 then feed ())
        frags;
      match !completed with
      | Some p -> Bytes.equal p payload
      | None -> false)

(* The TCP/IPv4 wire format carries no options (20-byte headers), so
   "arbitrary header" coverage means arbitrary field values: every legal
   combination of ports, sequence numbers, flags, fragment fields and
   payload must survive encode → checksum → decode bit-exactly. *)
let tcp_header_fields_prop =
  QCheck.Test.make ~name:"tcp codec roundtrips arbitrary header fields" ~count:300
    QCheck.(
      pair
        (pair (pair (int_bound 0xffff) (int_bound 0xffff))
           (pair (int_bound 0xffffffff) (int_bound 0xffffffff)))
        (pair (pair (int_bound 31) (int_bound 0xffff)) (string_of_size (Gen.int_range 0 600))))
    (fun (((src_port, dst_port), (seq, ack)), ((flag_bits, window), payload)) ->
      let src = A.Ipv4.of_string "10.0.0.1" and dst = A.Ipv4.of_string "10.0.0.2" in
      let hdr =
        { P.Tcp.src_port; dst_port; seq; ack;
          syn = flag_bits land 1 <> 0; ack_flag = flag_bits land 2 <> 0;
          fin = flag_bits land 4 <> 0; rst = flag_bits land 8 <> 0;
          psh = flag_bits land 16 <> 0; window }
      in
      let nb = Nb.alloc ~headroom:64 ~size:800 () in
      Nb.copy_in nb (Bytes.of_string payload);
      P.Tcp.encode hdr ~src ~dst nb;
      match P.Tcp.decode ~src ~dst nb with
      | Ok got -> got = hdr && Bytes.to_string (Nb.copy_out nb) = payload
      | Error _ -> false)

let ipv4_header_fields_prop =
  QCheck.Test.make ~name:"ipv4 codec roundtrips arbitrary header fields" ~count:300
    QCheck.(
      pair
        (pair (pair (int_range 1 255) (int_bound 0xffff))
           (pair (int_bound 200) bool))
        (pair (int_bound 3) (string_of_size (Gen.int_range 0 600))))
    (fun (((ttl, id), (frag_blocks, more_frags)), (proto_pick, payload)) ->
      let proto =
        match proto_pick with
        | 0 -> P.Ipv4.Icmp
        | 1 -> P.Ipv4.Tcp
        | 2 -> P.Ipv4.Udp
        | _ -> P.Ipv4.Unknown 42
      in
      let hdr =
        { P.Ipv4.src = A.Ipv4.of_string "192.168.7.1"; dst = A.Ipv4.of_string "10.9.8.7";
          proto; ttl; payload_len = String.length payload; id; more_frags;
          frag_offset = frag_blocks * 8 }
      in
      let nb = Nb.alloc ~headroom:64 ~size:800 () in
      Nb.copy_in nb (Bytes.of_string payload);
      P.Ipv4.encode hdr nb;
      match P.Ipv4.decode nb with
      | Ok got -> got = hdr && Bytes.to_string (Nb.copy_out nb) = payload
      | Error _ -> false)

(* Generalizes frag_random_order_prop from sampled shuffles to every
   arrival order: one thread per fragment on a single explored core, so
   the ukcheck dispatch choice points enumerate all 4! = 24 insertion
   interleavings exhaustively within the 64-schedule budget. *)
let test_frag_reassembly_under_explored_orders () =
  let payload = Bytes.init 32 (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
  let src = A.Ipv4.of_string "10.0.0.9" in
  let fixture smp ~seed:_ =
    let f = Frag.create ~clock:(Uksmp.Smp.clock_of smp ~core:0) () in
    let completed = ref None in
    for i = 0 to 3 do
      ignore
        (Uksched.Sched.spawn (Uksmp.Smp.sched_of smp ~core:0) (fun () ->
             match
               Frag.insert f ~src ~id:7 ~proto:17 ~frag_offset:(i * 8) ~more_frags:(i < 3)
                 (Bytes.sub payload (i * 8) 8)
             with
             | Frag.Complete p -> completed := Some p
             | Frag.Pending -> ()
             | Frag.Rejected e -> failwith e))
    done;
    fun () ->
      match !completed with
      | Some p when Bytes.equal p payload -> Ok ()
      | Some _ -> Error "reassembled bytes differ"
      | None -> Error "datagram never completed"
  in
  match Ukcheck.Prop.run ~cores:1 ~schedules:64 fixture with
  | Ukcheck.Explore.Passed s ->
      Alcotest.(check bool) "every arrival order enumerated" true s.Ukcheck.Explore.exhaustive;
      Alcotest.(check int) "all 24 interleavings of 4 fragments" 24 s.Ukcheck.Explore.schedules
  | Ukcheck.Explore.Failed f ->
      Alcotest.failf "order-dependent reassembly: %s (%s)" f.Ukcheck.Explore.message
        (Ukcheck.Schedule.to_string f.Ukcheck.Explore.cert)

(* --- full-stack integration over loopback --------------------------------- *)

let two_stacks () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let s1 = mk da "10.0.0.1" 0x1 in
  let s2 = mk db "10.0.0.2" 0x2 in
  (engine, sched, s1, s2)

let test_stack_udp_echo () =
  let _, sched, s1, s2 = two_stacks () in
  let seen = ref None in
  ignore
    (Uksched.Sched.spawn sched ~name:"server" (fun () ->
         let sock = S.Udp_socket.bind s1 ~port:53 in
         match S.Udp_socket.recvfrom ~block:true sock with
         | Some (src, sport, data) ->
             S.Udp_socket.sendto sock ~dst:(src, sport) (Bytes.cat data (Bytes.of_string "!"))
         | None -> ()));
  ignore
    (Uksched.Sched.spawn sched ~name:"client" (fun () ->
         let sock = S.Udp_socket.bind s2 ~port:9000 in
         S.Udp_socket.sendto sock ~dst:(A.Ipv4.of_string "10.0.0.1", 53)
           (Bytes.of_string "query");
         match S.Udp_socket.recvfrom ~block:true sock with
         | Some (_, _, data) -> seen := Some (Bytes.to_string data)
         | None -> ()));
  Uksched.Sched.run sched;
  Alcotest.(check (option string)) "udp echo" (Some "query!") !seen

let test_stack_tcp_end_to_end () =
  let _, sched, s1, s2 = two_stacks () in
  let got = ref [] in
  ignore
    (Uksched.Sched.spawn sched ~name:"server" (fun () ->
         let l = S.Tcp_socket.listen s1 ~port:80 () in
         match S.Tcp_socket.accept ~block:true l with
         | None -> ()
         | Some flow ->
             let rec serve () =
               match S.Tcp_socket.recv ~block:true s1 flow ~max:4096 with
               | None -> ()
               | Some req ->
                   ignore
                     (S.Tcp_socket.send ~block:true s1 flow
                        (Bytes.cat (Bytes.of_string "re:") req));
                   serve ()
             in
             serve ()));
  ignore
    (Uksched.Sched.spawn sched ~name:"client" (fun () ->
         let flow = S.Tcp_socket.connect s2 ~dst:(A.Ipv4.of_string "10.0.0.1", 80) () in
         for i = 1 to 3 do
           ignore
             (S.Tcp_socket.send ~block:true s2 flow (Bytes.of_string (Printf.sprintf "m%d" i)));
           match S.Tcp_socket.recv ~block:true s2 flow ~max:4096 with
           | Some data -> got := Bytes.to_string data :: !got
           | None -> ()
         done;
         S.Tcp_socket.close s2 flow));
  Uksched.Sched.run sched;
  Alcotest.(check (list string)) "three echoes" [ "re:m1"; "re:m2"; "re:m3" ] (List.rev !got)

(* A passive connection goes to the listener on its local port. The
   first client connects from port 80 to the listener on 81, so routing
   by the remote port would hand it to the listener on 80. *)
let test_stack_accept_routes_by_local_port () =
  let _, sched, s1, s2 = two_stacks () in
  let addr (ip, port) = Printf.sprintf "%s:%d" (A.Ipv4.to_string ip) port in
  let accepted = Hashtbl.create 2 in
  List.iter
    (fun port ->
      let l = S.Tcp_socket.listen s1 ~port () in
      ignore
        (Uksched.Sched.spawn sched ~name:(Printf.sprintf "server%d" port) (fun () ->
             match S.Tcp_socket.accept ~block:true l with
             | None -> ()
             | Some flow -> (
                 Hashtbl.replace accepted port
                   (addr (Tcp.local_addr flow), addr (Tcp.remote_addr flow));
                 match S.Tcp_socket.recv ~block:true s1 flow ~max:4096 with
                 | None -> ()
                 | Some req ->
                     ignore
                       (S.Tcp_socket.send ~block:true s1 flow
                          (Bytes.cat (Bytes.of_string (Printf.sprintf "p%d:" port)) req))))))
    [ 80; 81 ];
  let replies = ref [] and client_ends = ref [] in
  ignore
    (Uksched.Sched.spawn sched ~name:"client" (fun () ->
         List.iter
           (fun (lport, port) ->
             let flow =
               S.Tcp_socket.connect s2 ?lport ~dst:(A.Ipv4.of_string "10.0.0.1", port) ()
             in
             client_ends := addr (Tcp.local_addr flow) :: !client_ends;
             ignore (S.Tcp_socket.send ~block:true s2 flow (Bytes.of_string "hi"));
             (match S.Tcp_socket.recv ~block:true s2 flow ~max:4096 with
             | Some data -> replies := Bytes.to_string data :: !replies
             | None -> ());
             S.Tcp_socket.close s2 flow)
           [ (Some 80, 81); (None, 80) ]));
  Uksched.Sched.run sched;
  Alcotest.(check (list string)) "each reply from the dialled listener" [ "p81:hi"; "p80:hi" ]
    (List.rev !replies);
  match List.rev !client_ends with
  | [ first; second ] ->
      Alcotest.(check string) "forced client port" "10.0.0.2:80" first;
      Alcotest.(check (option (pair string string)))
        "listener 81 accepted the connection from port 80"
        (Some ("10.0.0.1:81", first))
        (Hashtbl.find_opt accepted 81);
      Alcotest.(check (option (pair string string)))
        "listener 80 accepted the ephemeral connection"
        (Some ("10.0.0.1:80", second))
        (Hashtbl.find_opt accepted 80)
  | ends -> Alcotest.failf "expected two client connections, got %d" (List.length ends)

(* The client closes first, so its end waits in TIME_WAIT until a timer
   closes it 2 MSL later. The stack then drops the connection from its
   table, and the same explicit local port can dial the same listener
   again. *)
let test_stack_reconnect_after_time_wait () =
  let _, sched, s1, s2 = two_stacks () in
  let l = S.Tcp_socket.listen s1 ~port:80 () in
  ignore
    (Uksched.Sched.spawn sched ~name:"server" (fun () ->
         for _ = 1 to 2 do
           match S.Tcp_socket.accept ~block:true l with
           | None -> ()
           | Some flow ->
               (match S.Tcp_socket.recv ~block:true s1 flow ~max:4096 with
               | Some req -> ignore (S.Tcp_socket.send ~block:true s1 flow req)
               | None -> ());
               while S.Tcp_socket.recv ~block:true s1 flow ~max:4096 <> None do
                 ()
               done;
               S.Tcp_socket.close s1 flow
         done));
  let replies = ref [] and first = ref None in
  ignore
    (Uksched.Sched.spawn sched ~name:"client" (fun () ->
         let dial msg =
           let flow =
             S.Tcp_socket.connect s2 ~lport:4000 ~dst:(A.Ipv4.of_string "10.0.0.1", 80) ()
           in
           ignore (S.Tcp_socket.send ~block:true s2 flow (Bytes.of_string msg));
           (match S.Tcp_socket.recv ~block:true s2 flow ~max:4096 with
           | Some data -> replies := Bytes.to_string data :: !replies
           | None -> ());
           S.Tcp_socket.close s2 flow;
           flow
         in
         let flow = dial "one" in
         Uksched.Sched.sleep_ns 3.0e9;
         first := Some (S.Tcp_socket.state flow);
         ignore (dial "two")));
  Uksched.Sched.run sched;
  Alcotest.(check (option string)) "the first connection closed on its timer" (Some "CLOSED")
    (Option.map Tcp.state_to_string !first);
  Alcotest.(check (list string)) "both dials answered" [ "one"; "two" ] (List.rev !replies)

(* Each request and each reply arms a retransmit timer that the peer's
   ACK disarms. Disarming cancels the pending engine event, so however
   many request/reply rounds one connection runs, the engine holds a
   bounded number of pending events instead of one stale 200 ms timer
   per ACK. *)
let test_stack_timer_events_bounded () =
  let engine, sched, s1, s2 = two_stacks () in
  let rounds = 300 in
  let pending = Array.make rounds 0 in
  ignore
    (Uksched.Sched.spawn sched ~name:"server" (fun () ->
         let l = S.Tcp_socket.listen s1 ~port:80 () in
         match S.Tcp_socket.accept ~block:true l with
         | None -> ()
         | Some flow ->
             let rec serve () =
               match S.Tcp_socket.recv ~block:true s1 flow ~max:4096 with
               | None -> ()
               | Some req ->
                   ignore (S.Tcp_socket.send ~block:true s1 flow req);
                   serve ()
             in
             serve ()));
  ignore
    (Uksched.Sched.spawn sched ~name:"client" (fun () ->
         let flow = S.Tcp_socket.connect s2 ~dst:(A.Ipv4.of_string "10.0.0.1", 80) () in
         for i = 0 to rounds - 1 do
           ignore (S.Tcp_socket.send ~block:true s2 flow (Bytes.of_string "ping"));
           ignore (S.Tcp_socket.recv ~block:true s2 flow ~max:4096);
           pending.(i) <- Uksim.Engine.pending engine
         done;
         S.Tcp_socket.close s2 flow));
  Uksched.Sched.run sched;
  let most = Array.fold_left max 0 pending in
  if most > 8 then
    Alcotest.failf "pending events grew with the rounds: %d after round 1, %d after round %d"
      pending.(0) pending.(rounds - 1) rounds

let test_stack_arp_populated () =
  let _, sched, s1, s2 = two_stacks () in
  ignore
    (Uksched.Sched.spawn sched (fun () ->
         let sock = S.Udp_socket.bind s2 ~port:1 in
         S.Udp_socket.sendto sock ~dst:(A.Ipv4.of_string "10.0.0.1", 7) (Bytes.of_string "x");
         (* Stay alive until the datagram has traversed ARP + the wire. *)
         Uksched.Sched.sleep_ns 1.0e6));
  Uksched.Sched.run sched;
  Alcotest.(check int) "one arp request" 1 (Uktrace.Source.count (S.source s2) "arp_requests");
  (* Packet to an unbound port on s1 is dropped there. *)
  Alcotest.(check bool) "s1 dropped the datagram" true
    (Uktrace.Source.count (S.source s1) "rx_drop" >= 1)

let test_stack_port_management () =
  let _, _, s1, _ = two_stacks () in
  let _sock = S.Udp_socket.bind s1 ~port:777 in
  Alcotest.check_raises "port in use" (Invalid_argument "Udp_socket.bind: port in use")
    (fun () -> ignore (S.Udp_socket.bind s1 ~port:777));
  Alcotest.check_raises "bad port" (Invalid_argument "Udp_socket.bind: bad port") (fun () ->
      ignore (S.Udp_socket.bind s1 ~port:0))

let suite =
  [
    Alcotest.test_case "mac addresses" `Quick test_mac;
    Alcotest.test_case "ipv4 addresses" `Quick test_ipv4_addr;
    Alcotest.test_case "rfc1071 checksum" `Quick test_checksum_rfc1071;
    Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
    QCheck_alcotest.to_alcotest checksum_matches_reference_prop;
    Alcotest.test_case "checksum range checks" `Quick test_checksum_range;
    Alcotest.test_case "ethernet roundtrip" `Quick test_eth_roundtrip;
    Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 checksum rejection" `Quick test_ipv4_checksum_rejected;
    QCheck_alcotest.to_alcotest udp_tcp_roundtrip_prop;
    Alcotest.test_case "tcp handshake" `Quick test_tcp_handshake;
    Alcotest.test_case "tcp data transfer" `Quick test_tcp_data_transfer;
    Alcotest.test_case "tcp segmentation (10KB)" `Quick test_tcp_large_transfer_segments;
    Alcotest.test_case "tcp RTO retransmission" `Quick test_tcp_retransmission;
    Alcotest.test_case "tcp re-arm cancels the replaced timer" `Quick test_tcp_rearm_cancels;
    Alcotest.test_case "tcp fast retransmit" `Quick test_tcp_fast_retransmit;
    Alcotest.test_case "tcp pipelined data segments are not duplicate ACKs" `Quick
      test_tcp_pipelined_data_is_not_dupack;
    Alcotest.test_case "tcp close sequence" `Quick test_tcp_close_sequence;
    Alcotest.test_case "tcp reset" `Quick test_tcp_rst;
    Alcotest.test_case "tcp flow control" `Quick test_tcp_flow_control;
    Alcotest.test_case "frag: out-of-order reassembly" `Quick test_frag_out_of_order;
    Alcotest.test_case "frag: duplicates" `Quick test_frag_duplicates_ok;
    Alcotest.test_case "frag: teardrop rejected" `Quick test_frag_teardrop_rejected;
    Alcotest.test_case "frag: expiry" `Quick test_frag_expiry;
    Alcotest.test_case "frag: 5KB UDP datagram end-to-end" `Quick
      test_udp_fragmentation_end_to_end;
    QCheck_alcotest.to_alcotest frag_random_order_prop;
    QCheck_alcotest.to_alcotest tcp_header_fields_prop;
    QCheck_alcotest.to_alcotest ipv4_header_fields_prop;
    Alcotest.test_case "frag: reassembly under explored arrival orders" `Quick
      test_frag_reassembly_under_explored_orders;
    Alcotest.test_case "stack: udp echo" `Quick test_stack_udp_echo;
    Alcotest.test_case "stack: tcp end to end" `Quick test_stack_tcp_end_to_end;
    Alcotest.test_case "stack: accept routes by the connection's local port" `Quick
      test_stack_accept_routes_by_local_port;
    Alcotest.test_case "stack: one pending timer event per connection" `Quick
      test_stack_timer_events_bounded;
    Alcotest.test_case "stack: a local port is free again after TIME_WAIT" `Quick
      test_stack_reconnect_after_time_wait;
    Alcotest.test_case "stack: arp" `Quick test_stack_arp_populated;
    Alcotest.test_case "stack: udp port management" `Quick test_stack_port_management;
  ]
