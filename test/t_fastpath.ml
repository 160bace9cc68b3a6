(* Tests for the zero-copy fast path: netbuf ownership edge cases, the
   debug-mode lifetime guards (planted-bug positives), the copy-vs-zero-
   copy TCP equivalence property, and whole-cluster replay determinism
   of the fast datapath. *)

module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp
module P = Uknetstack.Pkt
module A = Uknetstack.Addr
module Cl = Ukapps.Cluster

let netbuf = Ukapps.Serve.Netbuf { rtc = true }

(* --- netbuf window / ownership edge cases --------------------------------- *)

let test_window_ops () =
  let b = Nb.alloc ~headroom:8 ~size:32 () in
  Alcotest.(check int) "starts empty" 0 (Nb.len b);
  Alcotest.(check int) "at full headroom" 8 (Nb.offset b);
  Alcotest.(check int) "capacity" 32 (Nb.capacity b);
  Nb.copy_in b (Bytes.of_string "abcdef");
  Nb.push b 2;
  let buf, off, len = Nb.view b in
  Alcotest.(check int) "pushed offset" 6 off;
  Alcotest.(check int) "pushed len" 8 len;
  Bytes.set buf off 'H';
  Bytes.set buf (off + 1) 'H';
  Nb.pull b 2;
  Alcotest.(check string) "pull back to payload" "abcdef" (Bytes.to_string (Nb.copy_out b));
  Alcotest.check_raises "push beyond headroom"
    (Invalid_argument "Netbuf.push: no headroom") (fun () -> Nb.push b 9);
  Alcotest.check_raises "pull beyond payload"
    (Invalid_argument "Netbuf.pull: beyond payload") (fun () -> Nb.pull b 7);
  Nb.reset b;
  Alcotest.(check int) "reset len" 0 (Nb.len b);
  Alcotest.(check int) "reset offset" 8 (Nb.offset b)

let test_pool_exhaustion_and_remote_free () =
  let clock = Uksim.Clock.create () in
  let p = Nb.Pool.create ~clock ~count:1 ~size:64 () in
  let b = Option.get (Nb.Pool.take p) in
  Alcotest.(check (option reject)) "exhausted" None (Nb.Pool.take p);
  Nb.recycle b;
  Alcotest.(check int) "deferred on the remote-free list" 1 (Nb.Pool.pending_returns p);
  Alcotest.(check bool) "descriptor is dead" false (Nb.live b);
  let b' = Option.get (Nb.Pool.take p) in
  Alcotest.(check int) "drained" 0 (Nb.Pool.pending_returns p);
  Nb.recycle b';
  let elastic = Nb.Pool.create ~clock ~elastic:true ~count:1 ~size:64 () in
  let e1 = Option.get (Nb.Pool.take elastic) in
  let e2 = Nb.Pool.take elastic in
  Alcotest.(check bool) "elastic pool grows" true (e2 <> None);
  Nb.recycle e1;
  Nb.recycle (Option.get e2)

let test_share_refcount () =
  let clock = Uksim.Clock.create () in
  let p = Nb.Pool.create ~clock ~count:1 ~size:64 () in
  let b = Option.get (Nb.Pool.take p) in
  Nb.copy_in b (Bytes.of_string "shared");
  let s = Nb.share b in
  Nb.recycle b;
  (* The clone holds the storage alive: nothing returned yet, and the
     payload is still readable through it. *)
  Alcotest.(check int) "still referenced" 0 (Nb.Pool.pending_returns p);
  Alcotest.(check string) "clone reads payload" "shared" (Bytes.to_string (Nb.copy_out s));
  Nb.recycle s;
  Alcotest.(check int) "last ref returns storage" 1 (Nb.Pool.pending_returns p)

let test_copy_counters () =
  let before = Nb.total_copies () in
  let b = Nb.alloc ~size:128 () in
  let buf, off, _ = Nb.view b in
  Bytes.blit_string "direct generation" 0 buf off 17;
  Nb.set_len b 17;
  Nb.push b 0;
  Nb.pull b 0;
  ignore (Nb.payload_hash b);
  Alcotest.(check int) "zero-copy ops are uncounted" before (Nb.total_copies ());
  let bytes_before = Nb.copied_bytes_total () in
  ignore (Nb.copy_out b);
  Nb.copy_in b (Bytes.of_string "counted");
  ignore (Nb.copy b);
  ignore (Nb.of_bytes (Bytes.of_string "counted"));
  Alcotest.(check int) "four explicit copies counted" (before + 4) (Nb.total_copies ());
  Alcotest.(check int) "copied bytes accounted" (bytes_before + 17 + 7 + 7 + 7)
    (Nb.copied_bytes_total ())

(* --- debug-mode lifetime guards (planted bugs must trip) ------------------- *)

let test_guard_use_after_give () =
  Nb.set_debug true;
  Fun.protect ~finally:(fun () -> Nb.set_debug false) (fun () ->
      (* Planted bug: a handler keeps reading a buffer it already handed
         back. *)
      let b = Nb.of_bytes (Bytes.of_string "frame") in
      Nb.recycle b;
      Alcotest.check_raises "read after give" (Invalid_argument "Netbuf: use after give")
        (fun () -> ignore (Nb.copy_out b));
      Alcotest.check_raises "window op after give"
        (Invalid_argument "Netbuf: use after give") (fun () -> Nb.pull b 1);
      (* Reissued storage invalidates stale descriptors even when the
         descriptor itself was never given. *)
      let clock = Uksim.Clock.create () in
      let p = Nb.Pool.create ~clock ~count:1 ~size:64 () in
      let stale = Option.get (Nb.Pool.take p) in
      let keep = Nb.share stale in
      Nb.recycle stale;
      Nb.recycle keep;
      let fresh = Option.get (Nb.Pool.take p) in
      Alcotest.(check bool) "stale descriptor not live" false (Nb.live keep);
      Alcotest.check_raises "stale generation trapped"
        (Invalid_argument "Netbuf: use after give") (fun () -> ignore (Nb.view keep));
      Nb.recycle fresh)

let test_guard_double_give () =
  Nb.set_debug true;
  Fun.protect ~finally:(fun () -> Nb.set_debug false) (fun () ->
      (* Planted bug: two layers both think they own the buffer's end of
         life. *)
      let b = Nb.of_bytes (Bytes.of_string "frame") in
      Nb.recycle b;
      Alcotest.check_raises "double give" (Invalid_argument "Netbuf: double give")
        (fun () -> Nb.recycle b));
  (* With guards off, the double give is (deliberately) a silent no-op on
     a dead descriptor — the hot path pays no check. *)
  let b = Nb.of_bytes (Bytes.of_string "frame") in
  Nb.recycle b;
  Nb.recycle b

(* --- copy path vs zero-copy path: protocol equivalence --------------------- *)

(* A minimal in-memory TCP rig (same shape as t_uknetstack's): both ends
   of one connection over a recording fake wire. *)
type fake_net = {
  clock : Uksim.Clock.t;
  mutable sent : (P.Tcp.t * bytes) list; (* reversed *)
}

let fake_io net : Tcp.io =
  {
    Tcp.now_cycles = (fun () -> Uksim.Clock.cycles net.clock);
    charge = (fun c -> Uksim.Clock.advance net.clock c);
    tx_segment =
      (fun _conn hdr payload ->
        let data =
          match payload with
          | Tcp.Tx_bytes b -> b
          | Tcp.Tx_netbuf nb ->
              let b = Nb.copy_out nb in
              Nb.recycle nb;
              b
        in
        net.sent <- (hdr, data) :: net.sent);
    set_timer = (fun _ ~delay_cycles:_ -> ());
    wake = (fun _ -> ());
    notify_accept = (fun _ -> ());
  }

type rig = {
  neta : fake_net;
  netb : fake_net;
  client : Tcp.conn;
  server : Tcp.conn;
  mutable frames : (int * int * bool * bool * bool * bool * string) list; (* reversed *)
}

let take_sent net =
  let s = List.rev net.sent in
  net.sent <- [];
  s

let record (h : P.Tcp.t) data =
  (h.P.Tcp.seq, h.P.Tcp.ack, h.P.Tcp.syn, h.P.Tcp.ack_flag, h.P.Tcp.fin, h.P.Tcp.psh,
   Bytes.to_string data)

let mk_rig () =
  let neta = { clock = Uksim.Clock.create (); sent = [] } in
  let netb = { clock = Uksim.Clock.create (); sent = [] } in
  let client =
    Tcp.create_active (fake_io neta) ~local:(A.Ipv4.of_string "10.0.0.1", 100)
      ~remote:(A.Ipv4.of_string "10.0.0.2", 200) ~iss:1000
  in
  let listener = Tcp.create_listen (fake_io netb) ~local:(A.Ipv4.of_string "10.0.0.2", 200) in
  let syn = match take_sent neta with [ (h, _) ] -> h | _ -> failwith "expected SYN" in
  let server =
    Tcp.derive_passive listener ~remote:(A.Ipv4.of_string "10.0.0.1", 100) ~iss:5000
      ~peer_seq:syn.P.Tcp.seq
  in
  let rig = { neta; netb; client; server; frames = [] } in
  (* Log the SYN too so both rigs record identical handshakes. *)
  rig.frames <- record syn Bytes.empty :: rig.frames;
  rig

let deliver rig =
  let rec pump () =
    let from_a = take_sent rig.neta and from_b = take_sent rig.netb in
    let feed conn (hdr, data) =
      rig.frames <- record hdr data :: rig.frames;
      Tcp.on_segment conn hdr data
    in
    List.iter (feed rig.server) from_a;
    List.iter (feed rig.client) from_b;
    if rig.neta.sent <> [] || rig.netb.sent <> [] then pump ()
  in
  pump ()

let finish_handshake rig =
  (* create_active already emitted the SYN before mk_rig recorded it;
     derive_passive answers it on the first pump. *)
  deliver rig

(* The property: the same application byte stream pushed through the
   legacy copy path (send + socket-queue recv) and through the zero-copy
   path (send_nb + in-place rx sink) produces the same segments on the
   wire (seq/ack/flags/payload), delivers the same bytes, and leaves
   both connections with equal protocol-state hashes. *)
let equivalence_prop =
  QCheck.Test.make ~name:"zero-copy path == copy path (frames, bytes, state hash)"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 1 12) (string_of_size (Gen.int_range 1 2000)))
    (fun chunks ->
      (* Legacy rig: bytes in, socket queue out. *)
      let ra = mk_rig () in
      finish_handshake ra;
      let got_a = Buffer.create 256 in
      List.iter
        (fun chunk ->
          ignore (Tcp.send ra.client (Bytes.of_string chunk));
          deliver ra;
          let rec drain () =
            match Tcp.recv ra.server ~max:4096 with
            | Some b ->
                Buffer.add_bytes got_a b;
                drain ()
            | None -> ()
          in
          drain ())
        chunks;
      (* Zero-copy rig: netbufs in, rx sink consumes in place. *)
      let rb = mk_rig () in
      finish_handshake rb;
      let got_b = Buffer.create 256 in
      Tcp.set_rx_sink rb.server
        (Some
           (fun nb ->
             let buf, off, len = Nb.view nb in
             Buffer.add_subbytes got_b buf off len;
             Nb.recycle nb));
      List.iter
        (fun chunk ->
          ignore (Tcp.send_nb rb.client (Nb.of_bytes (Bytes.of_string chunk)));
          deliver rb)
        chunks;
      let sent = String.concat "" chunks in
      Buffer.contents got_a = sent
      && Buffer.contents got_b = sent
      && List.rev ra.frames = List.rev rb.frames
      && Tcp.state_hash ra.client = Tcp.state_hash rb.client
      && Tcp.state_hash ra.server = Tcp.state_hash rb.server)

(* --- the load client's reply scanners --------------------------------------- *)

(* Every protocol's scanner with a reply stream and the (ok, err) replies
   it holds. Scanners must not care how the stream is segmented (netbufs
   split wherever TCP felt like it): their state carries across feeds. *)
let scanners =
  let store_ok = Printf.sprintf "OK %016x\n" 0xabc and store_er = Printf.sprintf "ER %016x\n" 0 in
  [
    ( "http",
      (Ukapps.Httpd.client ()).Ukapps.Load.scanner,
      "HTTP/1.1 200 OK\r\nServer: ukraft\r\nContent-Length: 6\r\n\r\nab\r\n\r\n"
      ^ "HTTP/1.1 404 Not Found\r\ncontent-length:  9 \r\n\r\nnot found"
      ^ "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
      (2, 1) );
    ( "resp",
      (Ukapps.Resp_store.client Ukapps.Resp_store.Get).Ukapps.Load.scanner,
      "+OK\r\n$3\r\nxxx\r\n-ERR nope\r\n$-1\r\n:42\r\n$10\r\nabcde\r\nfgh\r\n+PONG\r\n",
      (6, 1) );
    ( "fixed", (Ukapps.Store.client ()).Ukapps.Load.scanner, store_ok ^ store_er ^ store_ok, (2, 1) );
  ]

(* Feed [segments] in order, each from the middle of a padded buffer;
   the replies counted and whether the stream is still framed. *)
let scan_count scanner segments =
  let scan = scanner () in
  let ok = ref 0 and err = ref 0 in
  let framed =
    List.for_all
      (fun s ->
        scan (Bytes.of_string ("##" ^ s ^ "##")) 2 (String.length s) ~on_reply:(function
          | `Ok -> incr ok
          | `Err -> incr err))
      segments
  in
  ((!ok, !err), framed)

let test_scanners_split_safe () =
  List.iter
    (fun (name, scanner, stream, expect) ->
      let count segs = fst (scan_count scanner segs) in
      Alcotest.(check (pair int int)) (name ^ ": whole stream") expect (count [ stream ]);
      Alcotest.(check (pair int int)) (name ^ ": byte at a time") expect
        (count (List.init (String.length stream) (fun i -> String.sub stream i 1)));
      for cut = 1 to String.length stream - 1 do
        let segs = [ String.sub stream 0 cut; String.sub stream cut (String.length stream - cut) ] in
        if count segs <> expect then Alcotest.failf "%s: split at byte %d miscounts replies" name cut
      done)
    scanners

(* On arbitrary bytes (drawn mostly from the protocols' own tokens) a
   scanner never raises and reports at most one reply per CRLF-terminated
   line, or per whole fixed-size reply. *)
let scanners_total_prop =
  let token =
    QCheck.Gen.(
      oneof
        [ oneofl [ "\r\n"; "\r"; "\n"; "$"; "-"; "+OK"; ":"; "5"; "-1000"; "E"; "OK ";
                   "HTTP/1.1 200 OK"; "HTTP/1.1 404 x"; "Content-Length: "; "99999999999999999999" ];
          map (String.make 1) char ])
  in
  let stream = QCheck.Gen.(map (String.concat "") (list_size (int_range 0 60) token)) in
  QCheck.Test.make ~name:"reply scanners are total on arbitrary bytes" ~count:500
    QCheck.(pair (make ~print:(Printf.sprintf "%S") stream) small_nat)
    (fun (s, cut) ->
      let cut = cut mod (String.length s + 1) in
      let segs = [ String.sub s 0 cut; String.sub s cut (String.length s - cut) ] in
      let crlfs = ref 0 in
      String.iteri (fun i c -> if c = '\n' && i > 0 && s.[i - 1] = '\r' then incr crlfs) s;
      List.for_all
        (fun (name, scanner, _, _) ->
          let (ok, err), _ = scan_count scanner segs in
          let bound = if name = "fixed" then String.length s / Ukapps.Store.reply_len else !crlfs in
          ok + err <= bound)
        scanners)

(* A Content-Length the client cannot use (negative, not decimal, too
   large for an int) is one error reply, after which the stream is no
   longer framed. *)
let test_http_bad_content_length () =
  List.iter
    (fun v ->
      let reply = Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n" v in
      let (ok, err), framed =
        scan_count (Ukapps.Httpd.client ()).Ukapps.Load.scanner [ reply ^ reply ]
      in
      Alcotest.(check (triple int int bool)) ("Content-Length: " ^ v) (0, 1, false) (ok, err, framed))
    [ "-1000"; "-3"; "12abc"; ""; "0x10"; "99999999999999999999" ]

let test_fast_load_reply_exceeds_mss () =
  (* End-to-end: a reply body well over one MSS arrives as several
     netbufs at the client's rx sink — the fast wrk must still count
     every reply exactly once. *)
  let big = String.concat "" (List.init 50 (fun i -> Printf.sprintf "line-%04d-%s\n" i (String.make 90 'x'))) in
  Alcotest.(check bool) "page spans several segments" true
    (String.length big > 2 * Uknetstack.Tcp.mss);
  let c = Cl.create ~seed:11 ~fastpath:Cl.fastpath_default ~n:1 () in
  ignore (Cl.add_httpd c ~transport:netbuf (Ukapps.Httpd.In_memory [ ("/big.html", big) ]));
  let r =
    Cl.run_load c ~transport:netbuf ~port:80 ~connections_per_core:2 ~requests_per_core:60
      ~pipeline:16 (Ukapps.Httpd.client ~path:"/big.html" ())
  in
  Alcotest.(check int) "every reply counted once" 60 r.Ukapps.Load.requests;
  Alcotest.(check int) "no errors" 0 r.Ukapps.Load.errors

(* --- qcheck: Nbio writer == legacy copy writer ----------------------------- *)

(* The MSS-coalescing zero-copy writer must emit a byte-identical stream
   to the legacy Buffer-and-send path for any sequence of write sizes
   (sub-byte fragments, exact-MSS hits, multi-MSS bursts). *)
module S = Uknetstack.Stack

let nbio_run ~use_nbio chunks =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let mk dev ip mac =
    let s =
      S.create ~clock ~engine ~sched ~dev
        { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
          netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
    in
    S.start s;
    s
  in
  let s1 = mk da "10.7.0.1" 0x71 in
  let s2 = mk db "10.7.0.2" 0x72 in
  let total = List.fold_left (fun a c -> a + String.length c) 0 chunks in
  let got = Buffer.create (max 16 total) in
  ignore
    (Uksched.Sched.spawn sched ~name:"sink" (fun () ->
         let l = S.Tcp_socket.listen s1 ~port:7000 () in
         match S.Tcp_socket.accept ~block:true l with
         | None -> ()
         | Some flow ->
             while Buffer.length got < total do
               match S.Tcp_socket.recv ~block:true s1 flow ~max:65536 with
               | Some b -> Buffer.add_bytes got b
               | None -> Buffer.add_string got (String.make total '?')
             done));
  ignore
    (Uksched.Sched.spawn sched ~name:"src" (fun () ->
         let flow = S.Tcp_socket.connect s2 ~dst:(A.Ipv4.of_string "10.7.0.1", 7000) () in
         if use_nbio then begin
           let w = Ukapps.Nbio.writer ~clock ~stack:s2 ~flow in
           List.iter (Ukapps.Nbio.add w) chunks;
           Ukapps.Nbio.flush w
         end
         else begin
           let b = Buffer.create 256 in
           List.iter (Buffer.add_string b) chunks;
           ignore (S.Tcp_socket.send ~block:true s2 flow (Buffer.to_bytes b))
         end;
         S.Tcp_socket.close s2 flow));
  Uksched.Sched.run sched;
  Buffer.contents got

let nbio_equivalence_prop =
  QCheck.Test.make ~name:"Nbio writer emits byte-identical stream to copy writer"
    ~count:40
    QCheck.(list_of_size (Gen.int_range 1 10) (string_of_size (Gen.int_range 0 3500)))
    (fun chunks ->
      let expect = String.concat "" chunks in
      nbio_run ~use_nbio:true chunks = expect
      && nbio_run ~use_nbio:false chunks = expect)

(* --- qcheck: netbuf window bounds ------------------------------------------ *)

let netbuf_bounds_prop =
  QCheck.Test.make ~name:"netbuf push/pull reject out-of-window offsets" ~count:200
    QCheck.(triple (int_bound 16) (int_bound 24) (int_bound 48))
    (fun (headroom, datalen, k) ->
      let b = Nb.alloc ~headroom ~size:(headroom + 24) () in
      Nb.copy_in b (Bytes.make datalen 'd');
      if k <= headroom then begin
        (* In-window push is reversible and bookkeeping stays exact. *)
        Nb.push b k;
        let ok = Nb.offset b = headroom - k && Nb.len b = datalen + k in
        Nb.pull b k;
        ok && Nb.offset b = headroom && Nb.len b = datalen
      end
      else
        (match Nb.push b k with
        | () -> false
        | exception Invalid_argument _ -> true)
        &&
        (match Nb.pull b (datalen + 1) with
        | () -> false
        | exception Invalid_argument _ -> true))

(* --- fast-path cluster: functional + replay determinism -------------------- *)

let test_fast_cluster_replay () =
  let run () =
    let c = Cl.create ~seed:7 ~fastpath:Cl.fastpath_default ~n:2 () in
    ignore (Cl.add_httpd c ~transport:netbuf (Ukapps.Httpd.In_memory
      [ ("/index.html", Ukapps.Httpd.default_page) ]));
    let r =
      Cl.run_load c ~transport:netbuf ~port:80 ~connections_per_core:2 ~requests_per_core:200
        ~pipeline:16 (Ukapps.Httpd.client ())
    in
    (r.Ukapps.Load.requests, r.Ukapps.Load.errors, Cl.trace_hash c, Cl.elapsed_ns c)
  in
  let (req1, err1, hash1, t1) = run () in
  let (req2, err2, hash2, t2) = run () in
  Alcotest.(check int) "all requests answered" 400 req1;
  Alcotest.(check int) "no errors" 0 err1;
  Alcotest.(check int) "same requests on replay" req1 req2;
  Alcotest.(check int) "same errors on replay" err1 err2;
  Alcotest.(check int) "trace hash replays byte-identically" hash1 hash2;
  Alcotest.(check (float 0.0)) "elapsed replays exactly" t1 t2

let test_fast_resp_copy_free () =
  let c = Cl.create ~seed:3 ~fastpath:Cl.fastpath_default ~n:2 () in
  let workers = Cl.add_resp c ~transport:netbuf ~populate:4096 () in
  (* Pre-population went through the direct execute path and counts as
     commands; the load below must add exactly one command per request. *)
  let st0 = Ukapps.Resp_store.sum_stats (Array.to_list workers) in
  let copies0 = Nb.total_copies () in
  let r =
    Cl.run_load c ~transport:netbuf ~port:6379 ~connections_per_core:2 ~requests_per_core:200
      ~pipeline:16 (Ukapps.Resp_store.client Ukapps.Resp_store.Get)
  in
  Alcotest.(check int) "all replies" 400 r.Ukapps.Load.requests;
  Alcotest.(check int) "no errors" 0 r.Ukapps.Load.errors;
  let st = Ukapps.Resp_store.sum_stats (Array.to_list workers) in
  Alcotest.(check int) "server executed every command" 400
    (st.Ukapps.Resp_store.commands - st0.Ukapps.Resp_store.commands);
  Alcotest.(check int) "all GETs hit" 400
    (st.Ukapps.Resp_store.hits - st0.Ukapps.Resp_store.hits);
  Alcotest.(check int) "the whole run made zero counted copies" 0
    (Nb.total_copies () - copies0)

(* --- one server, every transport --------------------------------------------- *)

(* A one-core rig: a server stack and a client stack joined by a loopback
   pair on one cooperative scheduler. [start] brings up the server. *)
let seam_rig start =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let mk dev ip mac =
    let s =
      S.create ~clock ~engine ~sched ~dev
        { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
          netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
    in
    S.start s;
    s
  in
  let server = mk da "10.8.0.1" 0x81 in
  let client = mk db "10.8.0.2" 0x82 in
  start ~clock ~engine ~sched ~stack:server;
  (clock, sched, client)

(* Connect to [port], send [segments] as separate sends 50 us apart, and
   read until [complete] holds of the reply bytes or the server closes.
   Returns the reply bytes and whether the server closed. *)
let seam_exchange (_, sched, stack) ~port ~complete segments =
  let got = Buffer.create 256 and closed = ref false in
  ignore
    (Uksched.Sched.spawn sched ~name:"seam-client" (fun () ->
         let flow = S.Tcp_socket.connect stack ~dst:(A.Ipv4.of_string "10.8.0.1", port) () in
         List.iter
           (fun seg ->
             ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string seg));
             Uksched.Sched.sleep_ns 50_000.0)
           segments;
         let rec read () =
           if not (complete (Buffer.contents got)) then
             match S.Tcp_socket.recv ~block:true stack flow ~max:65536 with
             | None -> closed := true
             | Some b ->
                 Buffer.add_bytes got b;
                 read ()
         in
         read ();
         S.Tcp_socket.close stack flow));
  Uksched.Sched.run sched;
  (* Drop the rig's stack sources: a thousand rigs must not pile up. *)
  Uktrace.Registry.clear ();
  (Buffer.contents got, !closed)

let transports =
  Ukapps.Serve.[ ("socket", Socket); ("netbuf", Netbuf { rtc = true });
                 ("netbuf-nortc", Netbuf { rtc = false }) ]

let ends_with suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let alloc clock = Ukalloc.Tlsf.create ~clock ~base:(1 lsl 24) ~len:(1 lsl 24)

(* One row per app: a server constructor, its port, a pipelined request
   stream, and when the reply stream is complete. *)
let seam_apps =
  let resp = Ukapps.Resp.encode_command in
  let lines n s = String.length s >= n in
  [
    ( "httpd",
      (fun transport ~clock ~engine:_ ~sched ~stack ->
        ignore
          (Ukapps.Httpd.serve ~transport ~clock ~sched ~stack ~alloc:(alloc clock)
             (Ukapps.Httpd.In_memory [ ("/a", "alpha"); ("/end", "END-OF-TEST") ]))),
      80,
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /nope HTTP/1.1\r\n\r\nBAD\r\n\r\n"
      ^ "GET /end HTTP/1.1\r\n\r\n",
      ends_with "END-OF-TEST" );
    ( "resp",
      (fun transport ~clock ~engine:_ ~sched ~stack ->
        ignore
          (Ukapps.Resp_store.serve ~transport ~clock ~sched ~stack ~alloc:(alloc clock) ())),
      6379,
      String.concat ""
        [ resp [ "SET"; "k"; "v1" ]; resp [ "GET"; "k" ]; resp [ "INCR"; "n" ];
          resp [ "DEL"; "k" ]; resp [ "GET"; "k" ]; resp [ "LPUSH"; "l"; "a" ];
          resp [ "PING"; "end-of-test" ] ],
      ends_with "end-of-test\r\n" );
    ( "store",
      (fun transport ~clock ~engine:_ ~sched ~stack ->
        let dev = Ukblock.Virtio_blk.create_ramdisk ~clock ~capacity_sectors:4096 () in
        match Ukstore.Store.format ~clock ~journal_sectors:64 dev with
        | Ok store -> ignore (Ukapps.Store.serve ~transport ~clock ~sched ~stack ~store ())
        | Error _ -> Alcotest.fail "format"),
      7000,
      "SET a 1\nGET a\nSET b 22\nDEL a\nGET a\nBOGUS\nCOMMIT\nROOT\n",
      lines (8 * Ukapps.Store.reply_len) );
    ( "infer",
      (fun transport ~clock ~engine ~sched ~stack ->
        let model =
          { Ukapps.Infer.name = "feedfacefeedface"; digest = 0xfeedface; size_mb = 1;
            bytes = 1 lsl 20; load_ns = 0.0 }
        in
        ignore
          (Ukapps.Infer.serve ~transport ~clock ~engine ~sched ~stack ~alloc:(alloc clock)
             ~max_batch:2 ~model ())),
      8000,
      (* The malformed line goes first: its reply is immediate, while the
         others wait for their batch. *)
      "XYZ\n"
      ^ String.concat ""
          (List.init 4 (fun i -> Ukapps.Infer.request ~rid:(i + 1) ~width:(3 * i))),
      lines (5 * Ukapps.Infer.reply_len) );
  ]

(* The seam's contract: an app's reply stream depends on the bytes it was
   sent, never on the transport or on where TCP cut the stream. Every
   split offset drives the netbuf path's stash. *)
let test_transport_equivalence () =
  List.iter
    (fun (app, start, port, stream, complete) ->
      let run transport segments =
        seam_exchange (seam_rig (start transport)) ~port ~complete segments
      in
      let expect, _ = run Ukapps.Serve.Socket [ stream ] in
      if not (complete expect) then Alcotest.failf "%s: reference run incomplete" app;
      List.iter
        (fun (tname, transport) ->
          for cut = 0 to String.length stream - 1 do
            let segments =
              if cut = 0 then [ stream ]
              else
                [ String.sub stream 0 cut;
                  String.sub stream cut (String.length stream - cut) ]
            in
            let got, _ = run transport segments in
            if got <> expect then
              Alcotest.failf "%s over %s, split at byte %d:\n got %S\nwant %S" app tname cut got
                expect
          done)
        transports)
    seam_apps

(* Redis semantics for a malformed command: one [-ERR Protocol error]
   reply, then the connection closes — a command pipelined behind it in
   the same segment is never executed. *)
let test_resp_framing_error_closes () =
  List.iter
    (fun (tname, transport) ->
      let start ~clock ~engine:_ ~sched ~stack =
        ignore (Ukapps.Resp_store.serve ~transport ~clock ~sched ~stack ~alloc:(alloc clock) ())
      in
      let ping = Ukapps.Resp.encode_command [ "PING" ] in
      let got, closed =
        seam_exchange (seam_rig start) ~port:6379 ~complete:(fun _ -> false)
          [ ping ^ "?bad\r\n" ^ ping ]
      in
      Alcotest.(check string) (tname ^ ": one error, nothing after it")
        "+PONG\r\n-ERR Protocol error\r\n" got;
      Alcotest.(check bool) (tname ^ ": connection closed") true closed)
    transports

(* A server that hangs up mid-load ends that connection the same way on
   every transport: RESP answers the malformed 4th request with -ERR and
   closes, so of the batches [2; 3] and [4; 5] the -ERR and the two
   requests never answered are the errors, and the run completes. *)
let test_close_mid_load () =
  let base = Ukapps.Resp_store.client Ukapps.Resp_store.Get in
  let proto =
    { base with
      Ukapps.Load.requests =
        (fun ~conn ~first ->
          let next = base.Ukapps.Load.requests ~conn ~first in
          fun j -> if j = 3 then "?bad\r\n" else next j) }
  in
  List.iter
    (fun (tname, transport) ->
      let start ~clock ~engine:_ ~sched ~stack =
        ignore (Ukapps.Resp_store.serve ~transport ~clock ~sched ~stack ~alloc:(alloc clock) ())
      in
      let clock, sched, stack = seam_rig start in
      let r =
        Ukapps.Load.run ~transport ~clock ~sched ~stack ~server:(A.Ipv4.of_string "10.8.0.1", 6379)
          ~connections:1 ~requests:8 ~pipeline:2 proto
      in
      Uktrace.Registry.clear ();
      Alcotest.(check int) (tname ^ ": -ERR plus two unanswered") 3 r.Ukapps.Load.errors)
    transports

(* End to end, an unusable Content-Length costs one error and ends the
   connection instead of raising inside the client. *)
let test_http_bad_length_ends_connection () =
  List.iter
    (fun (tname, transport) ->
      let start ~clock ~engine:_ ~sched ~stack =
        Ukapps.Serve.start transport ~name:"bad-http" ~clock ~sched ~stack ~port:80
          ~frame:Ukapps.Serve.line ~handle:(fun sink _ ->
            Ukapps.Serve.write sink "HTTP/1.1 200 OK\r\nContent-Length: -1000\r\n\r\n")
      in
      let clock, sched, stack = seam_rig start in
      let r =
        Ukapps.Load.run ~transport ~clock ~sched ~stack ~server:(A.Ipv4.of_string "10.8.0.1", 80)
          ~connections:1 ~requests:4 (Ukapps.Httpd.client ())
      in
      Uktrace.Registry.clear ();
      Alcotest.(check int) (tname ^ ": one error") 1 r.Ukapps.Load.errors)
    transports

let suite =
  [
    Alcotest.test_case "netbuf window push/pull/view/reset" `Quick test_window_ops;
    Alcotest.test_case "pool exhaustion + remote-free drain" `Quick
      test_pool_exhaustion_and_remote_free;
    Alcotest.test_case "share holds storage; last ref returns it" `Quick
      test_share_refcount;
    Alcotest.test_case "only explicit copies are counted" `Quick test_copy_counters;
    Alcotest.test_case "debug guard: use after give" `Quick test_guard_use_after_give;
    Alcotest.test_case "debug guard: double give" `Quick test_guard_double_give;
    QCheck_alcotest.to_alcotest equivalence_prop;
    Alcotest.test_case "reply scanners survive any split" `Quick test_scanners_split_safe;
    QCheck_alcotest.to_alcotest scanners_total_prop;
    Alcotest.test_case "HTTP scanner rejects unusable Content-Length" `Quick
      test_http_bad_content_length;
    Alcotest.test_case "fast load counts replies larger than one MSS" `Quick
      test_fast_load_reply_exceeds_mss;
    QCheck_alcotest.to_alcotest nbio_equivalence_prop;
    QCheck_alcotest.to_alcotest netbuf_bounds_prop;
    Alcotest.test_case "fast cluster replays byte-identically" `Quick
      test_fast_cluster_replay;
    Alcotest.test_case "fast RESP run is copy-free end to end" `Quick
      test_fast_resp_copy_free;
    Alcotest.test_case "every app replies identically over every transport" `Quick
      test_transport_equivalence;
    Alcotest.test_case "RESP framing error answers once and closes" `Quick
      test_resp_framing_error_closes;
    Alcotest.test_case "a server closing mid-load ends the connection" `Quick
      test_close_mid_load;
    Alcotest.test_case "unusable Content-Length ends the connection" `Quick
      test_http_bad_length_ends_connection;
  ]
