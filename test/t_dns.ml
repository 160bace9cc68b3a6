(* Tests for the DNS codec and authoritative server. *)

module Dns = Ukapps.Dns
module A = Uknetstack.Addr
module S = Uknetstack.Stack

let test_query_roundtrip () =
  let q = Dns.query ~id:77 "www.Example.COM" Dns.A in
  match Dns.decode (Dns.encode q) with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check int) "id" 77 m.Dns.id;
      Alcotest.(check bool) "query flag" true m.Dns.query;
      (match m.Dns.questions with
      | [ { qname; qtype = Dns.A } ] ->
          Alcotest.(check string) "normalized name" "www.example.com" qname
      | _ -> Alcotest.fail "question")

let test_response_roundtrip () =
  let m =
    {
      Dns.id = 42;
      query = false;
      rcode = Dns.No_error;
      recursion_desired = true;
      questions = [ { Dns.qname = "a.example.org"; qtype = Dns.A } ];
      answers =
        [
          { Dns.name = "a.example.org"; rtype = Dns.Cname; ttl = 60;
            rdata = Dns.Name "b.example.org" };
          { Dns.name = "b.example.org"; rtype = Dns.A; ttl = 300;
            rdata = Dns.Ipv4_addr (A.Ipv4.of_string "192.0.2.7") };
          { Dns.name = "b.example.org"; rtype = Dns.Txt; ttl = 300; rdata = Dns.Text "hello" };
        ];
      authority =
        [ { Dns.name = "example.org"; rtype = Dns.Ns; ttl = 3600; rdata = Dns.Name "ns1.example.org" } ];
    }
  in
  match Dns.decode (Dns.encode m) with
  | Error e -> Alcotest.fail e
  | Ok got ->
      Alcotest.(check int) "answer count" 3 (List.length got.Dns.answers);
      Alcotest.(check int) "authority count" 1 (List.length got.Dns.authority);
      (match got.Dns.answers with
      | [ { rdata = Dns.Name cname; _ }; { rdata = Dns.Ipv4_addr ip; _ };
          { rdata = Dns.Text txt; _ } ] ->
          Alcotest.(check string) "cname" "b.example.org" cname;
          Alcotest.(check string) "A" "192.0.2.7" (A.Ipv4.to_string ip);
          Alcotest.(check string) "txt" "hello" txt
      | _ -> Alcotest.fail "answers")

let test_compression_actually_compresses () =
  (* Shared suffixes are emitted once; an uncompressed encoding of the
     same records would be much larger. *)
  let answers =
    List.init 10 (fun i ->
        { Dns.name = Printf.sprintf "h%d.verylongzonename.example.com" i; rtype = Dns.A;
          ttl = 60; rdata = Dns.Ipv4_addr (A.Ipv4.of_int (0x0a000000 + i)) })
  in
  let m =
    { Dns.id = 1; query = false; rcode = Dns.No_error; recursion_desired = false;
      questions = []; answers; authority = [] }
  in
  let encoded = Dns.encode m in
  (* 10 names share ".verylongzonename.example.com" (29 bytes + labels):
     without compression this alone is ~300 bytes. *)
  Alcotest.(check bool)
    (Printf.sprintf "compressed to %d bytes" (Bytes.length encoded))
    true
    (Bytes.length encoded < 260);
  match Dns.decode encoded with
  | Ok got -> Alcotest.(check int) "all names recovered" 10 (List.length got.Dns.answers)
  | Error e -> Alcotest.fail e

let test_malformed_rejected () =
  List.iter
    (fun raw ->
      match Dns.decode (Bytes.of_string raw) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed packet accepted")
    [
      "";
      "\x00\x01";
      (* header claiming one question but no body *)
      "\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00";
    ]

let test_compression_loop_rejected () =
  (* A name whose compression pointer points at itself. *)
  let b = Bytes.make 16 '\000' in
  Bytes.set b 5 '\x00';
  Bytes.set b 4 '\x01' (* qdcount = 1 *);
  Bytes.set b 12 '\xc0';
  Bytes.set b 13 '\x0c' (* pointer to itself at offset 12 *);
  match Dns.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self-pointing compression accepted"

let dns_roundtrip_prop =
  let label_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12)) in
  let name_gen =
    QCheck.Gen.(map (String.concat ".") (list_size (int_range 1 4) label_gen))
  in
  QCheck.Test.make ~name:"dns: random A-record zones roundtrip" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) (pair name_gen (int_bound 0xffffff))))
    (fun records ->
      let m =
        {
          Dns.id = 7;
          query = false;
          rcode = Dns.No_error;
          recursion_desired = false;
          questions = [ { Dns.qname = "q.example"; qtype = Dns.A } ];
          answers =
            List.map
              (fun (name, ip) ->
                { Dns.name; rtype = Dns.A; ttl = 60; rdata = Dns.Ipv4_addr (A.Ipv4.of_int ip) })
              records;
          authority = [];
        }
      in
      match Dns.decode (Dns.encode m) with
      | Error _ -> false
      | Ok got ->
          List.length got.Dns.answers = List.length records
          && List.for_all2
               (fun (name, ip) (r : Dns.rr) ->
                 r.Dns.name = name
                 && match r.Dns.rdata with Dns.Ipv4_addr a -> A.Ipv4.to_int a = ip | _ -> false)
               records got.Dns.answers)

(* --- server ------------------------------------------------------------------ *)

let mk_server () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let sstack = mk da "10.0.0.1" 0x1 in
  let cstack = mk db "10.0.0.2" 0x2 in
  let srv = Dns.Server.create ~clock ~sched ~stack:sstack () in
  (clock, sched, cstack, srv)

let test_server_resolve_pure () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, _ = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let stack =
    S.create ~clock ~engine ~sched ~dev:da
      { S.mac = A.Mac.of_int 1; ip = A.Ipv4.of_string "10.0.0.1";
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let srv = Dns.Server.create ~clock ~sched ~stack () in
  Dns.Server.add_a srv ~name:"web.uk.test" "10.9.0.1";
  Dns.Server.add_record srv ~name:"alias.uk.test"
    { Dns.name = "alias.uk.test"; rtype = Dns.Cname; ttl = 60; rdata = Dns.Name "web.uk.test" };
  (* Direct hit. *)
  (match Dns.Server.resolve srv (Dns.query "WEB.uk.test" Dns.A) with
  | { Dns.rcode = Dns.No_error; answers = [ { rdata = Dns.Ipv4_addr ip; _ } ]; _ } ->
      Alcotest.(check string) "A answer" "10.9.0.1" (A.Ipv4.to_string ip)
  | _ -> Alcotest.fail "direct resolution");
  (* CNAME chase yields both records. *)
  (match Dns.Server.resolve srv (Dns.query "alias.uk.test" Dns.A) with
  | { Dns.rcode = Dns.No_error; answers; _ } ->
      Alcotest.(check int) "cname + a" 2 (List.length answers)
  | _ -> Alcotest.fail "cname resolution");
  (* Miss. *)
  (match Dns.Server.resolve srv (Dns.query "nope.uk.test" Dns.A) with
  | { Dns.rcode = Dns.Nx_domain; answers = []; _ } -> ()
  | _ -> Alcotest.fail "nxdomain");
  Alcotest.(check int) "nx counted" 1 (Dns.Server.nxdomain_count srv)

let test_server_over_network () =
  let clock, sched, cstack, srv = mk_server () in
  Dns.Server.add_a srv ~name:"db.uk.test" "10.9.0.42";
  let got = ref None in
  ignore
    (Uksched.Sched.spawn sched ~name:"resolver" (fun () ->
         got :=
           Some (Dns.Client.lookup ~clock ~stack:cstack ~server:(A.Ipv4.of_string "10.0.0.1")
                   "db.uk.test")));
  Uksched.Sched.run sched;
  match !got with
  | Some (Ok { Dns.answers = [ { rdata = Dns.Ipv4_addr ip; _ } ]; _ }) ->
      Alcotest.(check string) "resolved over UDP" "10.9.0.42" (A.Ipv4.to_string ip);
      Alcotest.(check int) "served" 1 (Dns.Server.queries_served srv)
  | Some (Ok _) -> Alcotest.fail "wrong answer shape"
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result"

let test_server_formerr_over_network () =
  let _, sched, cstack, _srv = mk_server () in
  let rcode = ref None in
  ignore
    (Uksched.Sched.spawn sched ~name:"fuzzer" (fun () ->
         let sock = S.Udp_socket.bind cstack ~port:9999 in
         S.Udp_socket.sendto sock ~dst:(A.Ipv4.of_string "10.0.0.1", 53)
           (Bytes.of_string "\x12\x34garbage");
         match S.Udp_socket.recvfrom ~block:true sock with
         | Some (_, _, payload) -> (
             match Dns.decode payload with
             | Ok m -> rcode := Some m.Dns.rcode
             | Error e -> Alcotest.fail e)
         | None -> ()));
  Uksched.Sched.run sched;
  match !rcode with
  | Some Dns.Form_err -> ()
  | _ -> Alcotest.fail "expected FORMERR reply"

let suite =
  [
    Alcotest.test_case "query roundtrip" `Quick test_query_roundtrip;
    Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
    Alcotest.test_case "name compression" `Quick test_compression_actually_compresses;
    Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "compression loop rejected" `Quick test_compression_loop_rejected;
    QCheck_alcotest.to_alcotest dns_roundtrip_prop;
    Alcotest.test_case "server: pure resolution" `Quick test_server_resolve_pure;
    Alcotest.test_case "server: lookup over UDP" `Quick test_server_over_network;
    Alcotest.test_case "server: FORMERR for garbage" `Quick test_server_formerr_over_network;
  ]
