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
  Nb.recycle b'

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
  Alcotest.(check int) "zero-copy ops are uncounted" before (Nb.total_copies ());
  let bytes_before = Nb.copied_bytes_total () in
  ignore (Nb.copy_out b);
  Nb.copy_in b (Bytes.of_string "counted");
  ignore (Nb.copy b);
  ignore (Nb.of_bytes (Bytes.of_string "counted"));
  Alcotest.(check int) "four explicit copies counted" (before + 4) (Nb.total_copies ());
  Alcotest.(check int) "copied bytes accounted" (bytes_before + 17 + 7 + 7 + 7)
    (Nb.copied_bytes_total ())

(* --- lifetime guards (planted bugs must trip; always on) ------------------- *)

let test_guard_use_after_give () =
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
  Nb.recycle fresh

(* Planted bug: two layers both think they own the buffer's end of life.
   The guard has no switch: the second recycle raises, on a heap cell
   and on a pooled one, and the pooled cell goes back to its pool once. *)
let test_guard_double_give () =
  let b = Nb.of_bytes (Bytes.of_string "frame") in
  Nb.recycle b;
  Alcotest.check_raises "double give" (Invalid_argument "Netbuf: double give") (fun () ->
      Nb.recycle b);
  let p = Nb.Pool.create ~clock:(Uksim.Clock.create ()) ~count:2 ~size:64 () in
  let pb = Option.get (Nb.Pool.take p) in
  Nb.recycle pb;
  Alcotest.check_raises "pooled double give" (Invalid_argument "Netbuf: double give")
    (fun () -> Nb.recycle pb);
  Alcotest.(check int) "the cell came back once" 2 (Nb.Pool.available p)

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
    set_timer = (fun _ ~delay_cycles:_ -> ignore);
    timer_closed = ignore;
    wake = (fun _ -> ());
    retransmitted = (fun ~fast:_ -> ());
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
      Tcp.on_segment_nb conn hdr (Nb.of_bytes data)
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
  let c = Cl.create ~fastpath:Cl.fastpath_default ~n:1 () in
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
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
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
    let c = Cl.create ~fastpath:Cl.fastpath_default ~n:2 () in
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
  let c = Cl.create ~fastpath:Cl.fastpath_default ~n:2 () in
  let workers = Cl.add_resp c ~transport:netbuf ~populate:4096 () in
  (* Pre-population went through the direct execute path and counts as
     commands; the load below must add exactly one command per request. *)
  let sum name =
    Array.fold_left
      (fun n w -> n + Uktrace.Source.count (Ukapps.Resp_store.source w) name)
      0 workers
  in
  let commands0 = sum "commands" and hits0 = sum "hits" in
  let copies0 = Nb.total_copies () in
  let r =
    Cl.run_load c ~transport:netbuf ~port:6379 ~connections_per_core:2 ~requests_per_core:200
      ~pipeline:16 (Ukapps.Resp_store.client Ukapps.Resp_store.Get)
  in
  Alcotest.(check int) "all replies" 400 r.Ukapps.Load.requests;
  Alcotest.(check int) "no errors" 0 r.Ukapps.Load.errors;
  Alcotest.(check int) "server executed every command" 400 (sum "commands" - commands0);
  Alcotest.(check int) "all GETs hit" 400 (sum "hits" - hits0);
  Alcotest.(check int) "the whole run made zero counted copies" 0
    (Nb.total_copies () - copies0)

(* Omitting [?fastpath] builds every stack as [fastpath_default] without
   TX coalescing does: RESP over sockets gets the same load result and
   the same schedule either way. *)
let test_omitted_fastpath () =
  let run fastpath =
    let c = Cl.create ?fastpath ~n:2 () in
    ignore (Cl.add_resp c ~transport:Ukapps.Serve.Socket ~populate:64 ());
    let r =
      Cl.run_load c ~transport:Ukapps.Serve.Socket ~port:6379 ~connections_per_core:2
        ~requests_per_core:100 (Ukapps.Resp_store.client Ukapps.Resp_store.Set)
    in
    (r, Cl.trace_hash c)
  in
  let r0, h0 = run None in
  let r1, h1 = run (Some { Cl.fastpath_default with Cl.tx_coalesce = false }) in
  Alcotest.(check int) "all answered" 200 r0.Ukapps.Load.requests;
  Alcotest.(check bool) "same load result" true (r0 = r1);
  Alcotest.(check int) "same trace hash" h0 h1

(* --- one server, every transport --------------------------------------------- *)

(* A one-core rig: a server stack and a client stack joined by a loopback
   pair on one cooperative scheduler. [start] brings up the server. *)
let seam_rig start =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
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

let serve_infer transport ~clock ~engine ~sched ~stack =
  let model =
    { Ukapps.Infer.name = "feedfacefeedface"; digest = 0xfeedface; size_mb = 1;
      bytes = 1 lsl 20; load_ns = 0.0 }
  in
  ignore
    (Ukapps.Infer.serve ~transport ~clock ~engine ~sched ~stack ~alloc:(alloc clock) ~max_batch:2
       ~model ())

(* Request [rid] has width [3 * (rid - 1)]: the first is zero-width. *)
let infer_requests rids =
  String.concat "" (List.map (fun rid -> Ukapps.Infer.request ~rid ~width:(3 * (rid - 1))) rids)

let store_group_stream = "SET a 1\nCOMMIT\nGET a\nROOT\n"

let lines_at_least n s =
  String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0 s >= n
let virtio_stores = ref []

let serve_virtio_store transport ~clock ~engine ~sched ~stack =
  let dev = Ukblock.Virtio_blk.create ~clock ~engine ~capacity_sectors:4096 () in
  match Ukstore.Store.format ~clock ~journal_sectors:64 dev with
  | Ok store ->
      virtio_stores := store :: !virtio_stores;
      ignore (Ukapps.Store.serve ~transport ~clock ~sched ~stack ~store ())
  | Error _ -> Alcotest.fail "format"

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
    ( "store over virtio-blk",
      (* The COMMIT's reply waits for its journal record's device write;
         the replies pipelined behind it wait for it. *)
      serve_virtio_store,
      7000,
      store_group_stream,
      lines (4 * Ukapps.Store.reply_len) );
    ( "infer",
      serve_infer,
      8000,
      "XYZ\n" ^ infer_requests [ 1; 2; 3; 4 ],
      lines (5 * Ukapps.Infer.reply_len) );
    ( "infer, malformed line behind pending requests",
      serve_infer,
      8000,
      infer_requests [ 1 ] ^ "XYZ\n" ^ infer_requests [ 2; 3; 4 ],
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

(* A client that opens a request and never finishes it: a RESP bulk of
   10^17 bytes, an HTTP request with no blank line, a store line with no
   newline, then 8 KiB sends of filler. The server holds at most 64 KiB
   of the request, then closes the connection, well before the client
   has sent 256 KiB, on both transports. A well-behaved connection to
   the same server meanwhile is answered in full, and once the rig has
   drained, both stacks' netbuf pools hold all their cells again. *)
let test_unframed_request_bounded () =
  let limit = 256 * 1024 in
  let filler = Bytes.make 8192 'x' in
  List.iter
    (fun (tname, transport) ->
      List.iter
        (fun (app, opener) ->
          let label = Printf.sprintf "%s over %s" app tname in
          let _, start, port, stream, complete =
            List.find (fun (a, _, _, _, _) -> a = app) seam_apps
          in
          let server = ref None in
          let ((_, sched, stack) as rig) =
            seam_rig (fun ~clock ~engine ~sched ~stack ->
                server := Some stack;
                start transport ~clock ~engine ~sched ~stack)
          in
          let sent = ref 0 and closed = ref false in
          ignore
            (Uksched.Sched.spawn sched ~name:"unframed-client" (fun () ->
                 let flow = S.Tcp_socket.connect stack ~dst:(A.Ipv4.of_string "10.8.0.1", port) () in
                 let open_ () = S.Tcp_socket.state flow = Tcp.Established in
                 (* Hand all of [b] to TCP, waiting while the send buffer
                    is full, unless the server closes first. *)
                 let rec push b off =
                   if off < Bytes.length b && open_ () then begin
                     let n = S.Tcp_socket.send stack flow (Bytes.sub b off (Bytes.length b - off)) in
                     sent := !sent + n;
                     if n = 0 then Uksched.Sched.sleep_ns 50_000.0;
                     push b (off + n)
                   end
                 in
                 push (Bytes.of_string opener) 0;
                 while open_ () && !sent < limit do
                   push filler 0
                 done;
                 closed := not (open_ ());
                 S.Tcp_socket.close stack flow));
          let got, _ = seam_exchange rig ~port ~complete [ stream ] in
          while Uksched.Sched.step sched do () done;
          Alcotest.(check bool) (label ^ ": the well-behaved connection is answered") true
            (complete got);
          if not !closed then
            Alcotest.failf "%s: %d bytes sent and the connection is still open" label !sent;
          Alcotest.(check bool) (label ^ ": closed before 256 KiB") true (!sent < limit);
          List.iter
            (fun (side, s) ->
              let p = S.pool s in
              Alcotest.(check int) (Printf.sprintf "%s: %s pool balances" label side)
                (Nb.Pool.total p) (Nb.Pool.available p))
            [ ("server", Option.get !server); ("client", stack) ])
        [ ("resp", "*1\r\n$100000000000000000\r\n");
          ("httpd", "GET /a HTTP/1.1\r\nX-Pad: ");
          ("store", "SET a ") ])
    [ ("socket", Ukapps.Serve.Socket); ("netbuf", netbuf) ]

(* The bound's edge: a connection may hold exactly 64 KiB of a request
   its framer cannot frame yet. Each app is sent a request of 64 KiB and
   one byte, its last byte 1 ms after the rest, so the server holds the
   other 64 KiB unframed; behind it comes a request that reads back what
   the first one wrote. On every transport both are answered, with the
   value intact, and once the rig has drained both pools balance. *)
let test_request_at_bound_answered () =
  let bound = 65536 in
  (* [mk n] is a request carrying [n] filler bytes: the one that is
     [bound + 1] bytes long, and its filler. *)
  let sized mk =
    let n = bound + 1 - (String.length (mk 10_000) - 10_000) in
    let r = mk n in
    assert (String.length r = bound + 1);
    (r, String.make n 'v')
  in
  let app name = List.find (fun (a, _, _, _, _) -> a = name) seam_apps in
  let resp = Ukapps.Resp.encode_command in
  let set, v = sized (fun n -> resp [ "SET"; "k"; String.make n 'v' ]) in
  let get, _ = sized (fun n -> Printf.sprintf "GET /a HTTP/1.1\r\nX-Pad: %s\r\n\r\n" (String.make n 'v')) in
  let line, lv = sized (fun n -> Printf.sprintf "SET a %s\n" (String.make n 'v')) in
  let http_end = "GET /end HTTP/1.1\r\n\r\n" in
  (* httpd ignores X-Pad: the reply is the one to the bare request. *)
  let http_reply, _ =
    let _, start, _, _, _ = app "httpd" in
    seam_exchange (seam_rig (start Ukapps.Serve.Socket)) ~port:80 ~complete:(ends_with "END-OF-TEST")
      [ "GET /a HTTP/1.1\r\n\r\n" ^ http_end ]
  in
  (* SET names the root of a store holding just [a]; GET, the digest of
     its value. *)
  let store_reply =
    let clock = Uksim.Clock.create () in
    let dev = Ukblock.Virtio_blk.create_ramdisk ~clock ~capacity_sectors:4096 () in
    match Ukstore.Store.format ~clock ~journal_sectors:64 dev with
    | Error _ -> Alcotest.fail "format"
    | Ok st ->
        if Ukstore.Store.set st "a" lv <> Ok () then Alcotest.fail "set";
        Printf.sprintf "OK %016x\nOK %016x\n" (Ukstore.Store.content_hash st)
          (Ukvfs.Digest.string_hash lv)
  in
  let cases =
    [ ("resp", set, resp [ "GET"; "k" ], Printf.sprintf "+OK\r\n$%d\r\n%s\r\n" (String.length v) v);
      ("httpd", get, http_end, http_reply);
      ("store", line, "GET a\n", store_reply) ]
  in
  List.iter
    (fun (tname, transport) ->
      List.iter
        (fun (name, request, follow, reply) ->
          let label = Printf.sprintf "%s over %s" name tname in
          let _, start, port, _, _ = app name in
          let server = ref None in
          let _, sched, stack =
            seam_rig (fun ~clock ~engine ~sched ~stack ->
                server := Some stack;
                start transport ~clock ~engine ~sched ~stack)
          in
          let got = Buffer.create 256 and closed = ref false in
          ignore
            (Uksched.Sched.spawn sched ~name:"bound-client" (fun () ->
                 let flow = S.Tcp_socket.connect stack ~dst:(A.Ipv4.of_string "10.8.0.1", port) () in
                 let send s = ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string s)) in
                 send (String.sub request 0 bound);
                 Uksched.Sched.sleep_ns 1e6;
                 send (String.sub request bound 1 ^ follow);
                 let rec read () =
                   if Buffer.length got < String.length reply then
                     match S.Tcp_socket.recv ~block:true stack flow ~max:65536 with
                     | None -> closed := true
                     | Some b ->
                         Buffer.add_bytes got b;
                         read ()
                 in
                 read ();
                 S.Tcp_socket.close stack flow));
          Uksched.Sched.run sched;
          while Uksched.Sched.step sched do () done;
          Alcotest.(check bool) (label ^ ": still open") false !closed;
          if Buffer.contents got <> reply then
            Alcotest.failf "%s: %d reply bytes, not the %d expected" label (Buffer.length got)
              (String.length reply);
          List.iter
            (fun (side, s) ->
              let p = S.pool s in
              Alcotest.(check int) (Printf.sprintf "%s: %s pool balances" label side)
                (Nb.Pool.total p) (Nb.Pool.available p))
            [ ("server", Option.get !server); ("client", stack) ];
          Uktrace.Registry.clear ())
        cases)
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

(* The reply renderer httpd used before it prebuilt its pages: every
   reply it writes must match this byte for byte. *)
let printf_response ~status ~body =
  Printf.sprintf "HTTP/1.1 %s\r\nServer: ukraft\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
    status (String.length body) body

(* In-memory pages around the 612-byte page and one 1460-byte segment,
   a path listed twice (the first body is served), a missing path and a
   malformed request line, on the socket and run-to-completion netbuf
   paths. *)
let test_httpd_replies_byte_identical () =
  let body n = String.init n (fun i -> Char.chr (33 + (i * 7 mod 94))) in
  let sized = List.map (fun n -> (Printf.sprintf "/b%d" n, body n)) [ 0; 1; 612; 1460; 1461; 3000 ] in
  let pages = sized @ [ ("/dup", "first body"); ("/dup", "the second, longer body") ] in
  let get path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path in
  let stream =
    String.concat "" (List.map (fun (path, _) -> get path) sized)
    ^ get "/dup" ^ get "/missing" ^ "BAD\r\n\r\n"
  in
  let expect =
    String.concat ""
      (List.map (fun (_, body) -> printf_response ~status:"200 OK" ~body) sized
      @ [ printf_response ~status:"200 OK" ~body:"first body";
          printf_response ~status:"404 Not Found" ~body:"not found";
          printf_response ~status:"400 Bad Request" ~body:"bad request" ])
  in
  List.iter
    (fun (tname, transport) ->
      let start ~clock ~engine:_ ~sched ~stack =
        ignore
          (Ukapps.Httpd.serve ~transport ~clock ~sched ~stack ~alloc:(alloc clock)
             (Ukapps.Httpd.In_memory pages))
      in
      let got, _ =
        seam_exchange (seam_rig start) ~port:80
          ~complete:(fun s -> String.length s >= String.length expect)
          [ stream ]
      in
      Alcotest.(check string) (tname ^ ": every reply byte") expect got)
    [ ("socket", Ukapps.Serve.Socket); ("netbuf", netbuf) ]

(* Request order through a deferred reply, on every transport: the
   COMMIT is answered with the commit its record made durable, and the
   GET and ROOT pipelined behind it come after it. *)
let test_store_group_reply_order () =
  List.iter
    (fun (tname, transport) ->
      virtio_stores := [];
      let got, _ =
        seam_exchange
          (seam_rig (serve_virtio_store transport))
          ~port:7000 ~complete:(lines_at_least 4) [ store_group_stream ]
      in
      let head = match !virtio_stores with [ st ] -> Ukstore.Store.head st | _ -> 0 in
      let root = match String.split_on_char '\n' got with r :: _ -> r | [] -> "" in
      Alcotest.(check (list string))
        (tname ^ ": replies in request order")
        [ root; Printf.sprintf "OK %016x" head;
          Printf.sprintf "OK %016x" (Ukvfs.Digest.string_hash "1"); root; "" ]
        (String.split_on_char '\n' got);
      Alcotest.(check bool) (tname ^ ": the COMMIT made a commit") true (head <> 0))
    transports

(* An ER for a malformed line waits behind the inference requests before
   it, on every transport. *)
let test_infer_error_in_order () =
  List.iter
    (fun (tname, transport) ->
      let got, _ =
        seam_exchange (seam_rig (serve_infer transport)) ~port:8000 ~complete:(lines_at_least 5)
          [ infer_requests [ 1 ] ^ "XYZ\n" ^ infer_requests [ 2; 3; 4 ] ]
      in
      let tags =
        List.filter_map
          (fun l -> if String.length l >= 11 then Some (String.sub l 0 11) else None)
          (String.split_on_char '\n' got)
      in
      Alcotest.(check (list string))
        (tname ^ ": replies in request order")
        [ "OK 00000001"; "ER 00000000"; "OK 00000002"; "OK 00000003"; "OK 00000004" ]
        tags)
    transports

(* On the socket path a deferred reply must neither be dropped nor jump
   the queue. Supplied while the send buffer is full (the peer is not
   reading), it is queued and follows the bulk reply once the peer reads,
   ahead of the next reply, also when the peer sends nothing more until
   it has it. Supplied by another thread while the connection's blocking
   send of the bulk reply is under way (the peer reading as fast as it
   can), it waits for that send to finish. The peer sends PING once it
   has read [ping_after] bytes. *)
let test_socket_deferred_flush_when_full () =
  let bulk_then_later ?(wait_for_later = false) ~bulk ~supply ~pause_ns () =
    let start ~clock ~engine ~sched ~stack =
      Ukapps.Serve.start Ukapps.Serve.Socket ~name:"full" ~clock ~sched ~stack ~port:9000
        ~frame:Ukapps.Serve.line ~handle:(fun sink line ->
          match line with
          | "BULK" -> Ukapps.Serve.write sink (String.make bulk 'b')
          | "LATER" -> supply ~engine ~sched (Ukapps.Serve.defer sink)
          | _ -> Ukapps.Serve.write sink "PONG\n")
    in
    let _, sched, stack = seam_rig start in
    let got = Buffer.create (bulk + 64) in
    ignore
      (Uksched.Sched.spawn sched ~name:"reader" (fun () ->
           let flow = S.Tcp_socket.connect stack ~dst:(A.Ipv4.of_string "10.8.0.1", 9000) () in
           ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string "BULK\nLATER\n"));
           if pause_ns > 0.0 then Uksched.Sched.sleep_ns pause_ns;
           let read_until n =
             while Buffer.length got < n do
               match S.Tcp_socket.recv ~block:true stack flow ~max:1500 with
               | None -> Alcotest.fail "closed"
               | Some b -> Buffer.add_bytes got b
             done
           in
           read_until (if wait_for_later then bulk + 6 else bulk);
           ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string "PING\n"));
           read_until (bulk + 11);
           S.Tcp_socket.close stack flow));
    Uksched.Sched.run sched;
    Uktrace.Registry.clear ();
    Buffer.contents got
  in
  let check what got bulk =
    Alcotest.(check string) what (String.make bulk 'b' ^ "LATER\nPONG\n") got
  in
  List.iter
    (fun wait_for_later ->
      List.iter
        (fun (bulk, delay_ns) ->
          let timer ~engine ~sched:_ reply =
            Uksim.Engine.after_ns engine delay_ns (fun () -> reply "LATER\n")
          in
          check
            (Printf.sprintf "bulk %d, supplied at +%.0f us to a full buffer%s" bulk
               (delay_ns /. 1e3)
               (if wait_for_later then ", peer waits for it" else ""))
            (bulk_then_later ~wait_for_later ~bulk ~supply:timer ~pause_ns:(delay_ns +. 2e6) ())
            bulk)
        [ (200_000, 100_000.0); (131_072, 100_000.0); (65_536, 300_000.0); (100_000, 1e6) ])
    [ false; true ];
  List.iter
    (fun delay_ns ->
      let thread ~engine:_ ~sched reply =
        ignore
          (Uksched.Sched.spawn sched ~name:"supplier" (fun () ->
               Uksched.Sched.sleep_ns delay_ns;
               reply "LATER\n"))
      in
      check
        (Printf.sprintf "supplied by a thread at +%.0f us during the blocking send" (delay_ns /. 1e3))
        (bulk_then_later ~bulk:150_000 ~supply:thread ~pause_ns:0.0 ())
        150_000)
    [ 20_000.0; 22_100.0; 24_900.0; 60_000.0 ]

(* --- each layer counts a packet once ------------------------------------------- *)

(* Per loopback side, the device counts what the stacks bound to it
   count: every packet a stack handed to tx_burst, and every packet
   rx_burst handed to a stack. A wrapper that counted into the device's
   source, or a layer that lost a count, breaks the equalities. *)
let check_counted_once label dev stacks =
  let count = Uktrace.Source.count in
  let sum name = List.fold_left (fun n s -> n + count (S.source s) name) 0 stacks in
  Alcotest.(check bool) (label ^ ": traffic flowed") true (count dev "rx_pkts" > 0);
  Alcotest.(check int) (label ^ ": device tx_pkts") (sum "tx_pkts") (count dev "tx_pkts");
  Alcotest.(check int) (label ^ ": device rx_pkts") (sum "rx_eth") (count dev "rx_pkts")

let httpd_content = Ukapps.Httpd.In_memory [ ("/index.html", Ukapps.Httpd.default_page) ]

let test_cluster_counts_once () =
  List.iter
    (fun (name, transport) ->
      Uktrace.Registry.clear ();
      let c = Cl.create ~n:2 () in
      (* The pair registers its two device sources on a cleared registry. *)
      let device id =
        List.find (fun s -> Uktrace.Source.id s = id) (Uktrace.Registry.sources ())
      in
      let server_dev = device "uknetdev.loopback-a" and client_dev = device "uknetdev.loopback-b" in
      ignore (Cl.add_httpd c ~transport httpd_content);
      let r =
        Cl.run_load c ~transport ~port:80 ~connections_per_core:2 ~requests_per_core:100
          ~pipeline:4 (Ukapps.Httpd.client ())
      in
      Alcotest.(check int) (name ^ ": all answered") 200 r.Ukapps.Load.requests;
      check_counted_once (name ^ " server side") server_dev
        [ Cl.server_stack c 0; Cl.server_stack c 1 ];
      check_counted_once (name ^ " client side") client_dev
        [ Cl.client_stack c 0; Cl.client_stack c 1 ])
    [ ("socket", Ukapps.Serve.Socket); ("netbuf", netbuf) ];
  Uktrace.Registry.clear ()

(* One core, httpd over a loopback pair whose server side is optionally
   wrapped in a Faultnet that injects nothing. Returns each side's device
   readings. *)
let faultnet_run ~wrap transport =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let da =
    if not wrap then da
    else
      Ukfault.Faultnet.(
        dev (wrap ~clock ~engine ~rng:(Uksim.Rng.create 3) ~plan:(plan ()) da))
  in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let server = mk da "10.9.0.1" 0x91 in
  let client = mk db "10.9.0.2" 0x92 in
  ignore (Ukapps.Httpd.serve ~transport ~clock ~sched ~stack:server ~alloc:(alloc clock) httpd_content);
  let r =
    Ukapps.Load.run ~transport ~clock ~sched ~stack:client
      ~server:(A.Ipv4.of_string "10.9.0.1", 80) ~connections:2 ~requests:100 ~pipeline:4
      (Ukapps.Httpd.client ())
  in
  Alcotest.(check int) "all answered" 100 r.Ukapps.Load.requests;
  let label = if wrap then "wrapped" else "bare" in
  check_counted_once (label ^ " server side") da.Uknetdev.Netdev.source [ server ];
  check_counted_once (label ^ " client side") db.Uknetdev.Netdev.source [ client ];
  let readings (d : Uknetdev.Netdev.t) = d.source.Uktrace.Source.snapshot () in
  let got = (readings da, readings db) in
  Uktrace.Registry.clear ();
  got

let test_faultnet_counts_nothing () =
  List.iter
    (fun (name, transport) ->
      let bare = faultnet_run ~wrap:false transport in
      Alcotest.(check bool) (name ^ ": a fault-free wrapper moves no device count") true
        (faultnet_run ~wrap:true transport = bare))
    [ ("socket", Ukapps.Serve.Socket); ("netbuf", netbuf) ];
  (* The block side: a fault-free Faultblk shares the ramdisk's source. *)
  let clock = Uksim.Clock.create () in
  let disk = Ukblock.Virtio_blk.create_ramdisk ~clock ~capacity_sectors:64 () in
  let fb = Ukfault.Faultblk.wrap ~clock ~rng:(Uksim.Rng.create 3) ~plan:(Ukfault.Faultblk.plan ()) disk in
  let dev = Ukfault.Faultblk.dev fb in
  for lba = 0 to 4 do
    match dev.Ukblock.Blockdev.write_sync ~lba (Bytes.make 1024 'w') with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Ukblock.Blockdev.error_to_string e)
  done;
  let count = Uktrace.Source.count dev.Ukblock.Blockdev.source in
  Alcotest.(check int) "each write_sync counted once" 5 (count "writes");
  Alcotest.(check int) "its sectors counted once" 10 (count "sectors_written");
  Uktrace.Registry.clear ()

(* --- both transports over a hostile link ------------------------------------ *)

module Fn = Ukfault.Faultnet

(* httpd or RESP on [transport], loaded by Load's client on the same
   transport across two virtio-net devices on a wire. Each device has
   a 4-slot ring, so it refuses frames, and is wrapped in a Faultnet
   that drops, duplicates, corrupts and reorders frames, each at a rate
   drawn from 0-5% by [seed]. The load must finish without raising.
   Every request is answered exactly once, or its connection closes and
   it counts as an error: the OK replies the client scanned plus the
   errors equal the requests it sent. A corrupted frame is caught by a
   checksum (the stacks drop frames). Once the rig has drained, both
   stacks' netbuf pools hold all their cells again. Returns the frames
   the devices refused. *)
let hostile_link_run ~transport ~seed (app, port, start, (proto : Ukapps.Load.proto)) =
  let label = Printf.sprintf "%s, seed %d" app seed in
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let rng = Uksim.Rng.create seed in
  let rate () = Uksim.Rng.float rng 0.05 in
  let plan = Fn.plan ~drop:(rate ()) ~duplicate:(rate ()) ~corrupt:(rate ()) ~reorder:(rate ()) () in
  let wa, wb = Uknetdev.Wire.create_pair ~engine () in
  let mk wire ip mac =
    let dev =
      Uknetdev.Virtio_net.create ~clock ~engine ~backend:Uknetdev.Virtio_net.Vhost_net ~wire
        ~ring_size:4 ()
    in
    let fn = Fn.wrap ~clock ~engine ~rng:(Uksim.Rng.split rng) ~plan dev in
    ( S.create ~clock ~engine ~sched ~dev:(Fn.dev fn)
        { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
          netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None },
      fn )
  in
  let server, fa = mk wa "10.7.0.1" 0x71 in
  let client, fb = mk wb "10.7.0.2" 0x72 in
  start transport ~clock ~sched ~stack:server;
  let sent = ref 0 and ok_replies = ref 0 in
  let counted =
    { proto with
      Ukapps.Load.requests =
        (fun ~conn ~first ->
          let next = proto.Ukapps.Load.requests ~conn ~first in
          fun j ->
            incr sent;
            next j);
      scanner =
        (fun () ->
          let scan = proto.Ukapps.Load.scanner () in
          fun buf off len ~on_reply ->
            scan buf off len ~on_reply:(fun r ->
                if r = `Ok then incr ok_replies;
                on_reply r)) }
  in
  let r =
    try
      let r =
        Ukapps.Load.run ~transport ~clock ~sched ~stack:client
          ~server:(A.Ipv4.of_string "10.7.0.1", port) ~connections:4 ~requests:200 ~pipeline:4
          counted
      in
      while Uksched.Sched.step sched do () done;
      r
    with e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  in
  let count = Uktrace.Source.count in
  let faults name = count (Fn.source fa) name + count (Fn.source fb) name in
  Alcotest.(check bool) (label ^ ": replies flowed") true (!ok_replies > 0);
  Alcotest.(check int) (label ^ ": each sent request answered once or an error") !sent
    (!ok_replies + r.Ukapps.Load.errors);
  if faults "corrupted" > 0 then
    Alcotest.(check bool) (label ^ ": a checksum caught the corruption") true
      (count (S.source server) "rx_drop" + count (S.source client) "rx_drop" > 0);
  List.iter
    (fun (side, s) ->
      let p = S.pool s in
      Alcotest.(check int) (Printf.sprintf "%s: %s pool balances" label side)
        (Nb.Pool.total p) (Nb.Pool.available p))
    [ ("server", server); ("client", client) ];
  let refused = faults "refused" in
  Uktrace.Registry.clear ();
  refused

(* Both apps, seeds 1-3; across them all the rings refused frames. *)
let hostile_link transport =
  let apps =
    [ ( "httpd", 80,
        (fun transport ~clock ~sched ~stack ->
          ignore (Ukapps.Httpd.serve ~transport ~clock ~sched ~stack ~alloc:(alloc clock)
                    httpd_content)),
        Ukapps.Httpd.client () );
      ( "resp", 6379,
        (fun transport ~clock ~sched ~stack ->
          ignore (Ukapps.Resp_store.serve ~transport ~clock ~sched ~stack
                    ~alloc:(alloc clock) ())),
        Ukapps.Resp_store.client Ukapps.Resp_store.Set ) ]
  in
  let refused =
    List.fold_left
      (fun acc seed ->
        List.fold_left (fun acc app -> acc + hostile_link_run ~transport ~seed app) acc apps)
      0 [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "the rings refused frames" true (refused > 0)

let test_fast_path_over_hostile_link () = hostile_link netbuf
let test_socket_path_over_hostile_link () = hostile_link Ukapps.Serve.Socket

(* --- netbuf pools balance after every kind of cluster run --------------------- *)

(* Every app over every transport, plus the shared-pool ablation, on 1, 2
   and 4 cores: once the load completes, every distinct netbuf pool on
   either side holds all its cells again. Zero-copy RX hands the server
   the client's TX cells, so a server path that drops a buffer without
   recycling it shows up as a client-pool leak. *)
let pool_configs =
  [
    ("socket", None, Ukapps.Serve.Socket);
    ("netbuf", Some Cl.fastpath_default, netbuf);
    ("netbuf-nortc", Some Cl.fastpath_default, Ukapps.Serve.Netbuf { rtc = false });
    ("shared-pool", Some { Cl.fastpath_default with Cl.shared_pool = true }, netbuf);
  ]

let pool_apps =
  [
    ( "httpd", 80,
      (fun c ~transport -> ignore (Cl.add_httpd c ~transport httpd_content)),
      fun () -> Ukapps.Httpd.client () );
    ( "resp", 6379,
      (fun c ~transport -> ignore (Cl.add_resp c ~transport ~populate:64 ())),
      fun () -> Ukapps.Resp_store.client Ukapps.Resp_store.Set );
    ( "store", 7000,
      (fun c ~transport -> ignore (Cl.add_store c ~transport ~keys:16 ())),
      fun () -> Ukapps.Store.client ~commit_every:8 () );
  ]

let test_pools_balance () =
  let requests_per_core = 40 in
  List.iter
    (fun (app, port, add, client) ->
      List.iter
        (fun (config, fastpath, transport) ->
          List.iter
            (fun n ->
              Uktrace.Registry.clear ();
              let label = Printf.sprintf "%s/%s/%d cores" app config n in
              let c = Cl.create ?fastpath ~n () in
              add c ~transport;
              let r =
                Cl.run_load c ~transport ~port ~connections_per_core:2 ~requests_per_core
                  ~pipeline:4 (client ())
              in
              Alcotest.(check int) (label ^ ": all answered") (n * requests_per_core)
                r.Ukapps.Load.requests;
              Alcotest.(check int) (label ^ ": no errors") 0 r.Ukapps.Load.errors;
              let stacks =
                List.concat_map (fun i -> [ Cl.server_stack c i; Cl.client_stack c i ])
                  (List.init n Fun.id)
              in
              let pools =
                List.fold_left
                  (fun acc s -> if List.memq (S.pool s) acc then acc else S.pool s :: acc)
                  [] stacks
              in
              List.iter
                (fun p ->
                  Alcotest.(check int) (label ^ ": every cell back in its pool")
                    (Nb.Pool.total p) (Nb.Pool.available p))
                pools)
            [ 1; 2; 4 ])
        pool_configs)
    pool_apps;
  Uktrace.Registry.clear ()

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
    Alcotest.test_case "an omitted fastpath is the default without TX coalescing" `Quick
      test_omitted_fastpath;
    Alcotest.test_case "fast RESP run is copy-free end to end" `Quick
      test_fast_resp_copy_free;
    Alcotest.test_case "every app replies identically over every transport" `Quick
      test_transport_equivalence;
    Alcotest.test_case "store group commit answers in request order" `Quick
      test_store_group_reply_order;
    Alcotest.test_case "infer answers a malformed line in request order" `Quick
      test_infer_error_in_order;
    Alcotest.test_case "socket flush neither drops nor reorders a deferred reply" `Quick
      test_socket_deferred_flush_when_full;
    Alcotest.test_case "RESP framing error answers once and closes" `Quick
      test_resp_framing_error_closes;
    Alcotest.test_case "a server closing mid-load ends the connection" `Quick
      test_close_mid_load;
    Alcotest.test_case "a request that never frames is cut off at 64 KiB" `Quick
      test_unframed_request_bounded;
    Alcotest.test_case "a request holding exactly 64 KiB unframed is answered" `Quick
      test_request_at_bound_answered;
    Alcotest.test_case "unusable Content-Length ends the connection" `Quick
      test_http_bad_length_ends_connection;
    Alcotest.test_case "httpd replies are byte-identical to the Printf renderer" `Quick
      test_httpd_replies_byte_identical;
    Alcotest.test_case "each layer counts a packet once" `Quick test_cluster_counts_once;
    Alcotest.test_case "a fault-free wrapper counts nothing twice" `Quick
      test_faultnet_counts_nothing;
    Alcotest.test_case "netbuf pools balance after every cluster run" `Quick
      test_pools_balance;
    Alcotest.test_case "the fast path survives a hostile link" `Quick
      test_fast_path_over_hostile_link;
    Alcotest.test_case "the socket path survives a hostile link" `Quick
      test_socket_path_over_hostile_link;
  ]
