(* Hostile input is total: every decoder that reads bytes from outside
   (the wire, a disk, a command line, a saved certificate) answers
   arbitrary input with a value — Ok or Error, Some or None — and never
   raises.

   One harness drives them all. Each decoder gets random bytes, random
   printable text, and truncations and single-byte flips of one valid
   encoding; QCheck reports any exception as a failure with the input
   that raised it. IPv4 reassembly reads fragment sequences rather than
   one buffer, so it gets its own two properties at the end. *)

module Nb = Uknetdev.Netbuf
module P = Uknetstack.Pkt
module A = Uknetstack.Addr

type decoder = {
  name : string;
  valid : string;  (** one well-formed input, the seed for truncations and flips *)
  decode : string -> bool;  (** run the decoder: did it accept the input? *)
}

let accepts = function Ok _ -> true | Error _ -> false

(* Random bytes, printable text, a prefix of [valid], or [valid] with one
   byte xored. *)
let hostile valid =
  let open QCheck.Gen in
  let n = String.length valid in
  oneof
    [
      string_size ~gen:char (int_range 0 256);
      string_size ~gen:printable (int_range 0 256);
      map (fun k -> String.sub valid 0 k) (int_bound n);
      map2
        (fun pos x ->
          let b = Bytes.of_string valid in
          let pos = pos mod n in
          Bytes.set b pos (Char.chr (Char.code valid.[pos] lxor x));
          Bytes.to_string b)
        (int_bound 4096) (int_range 1 255);
    ]

let total d =
  QCheck.Test.make ~name:(d.name ^ " is total on hostile input") ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") (hostile d.valid))
    (fun s ->
      ignore (d.decode s);
      true)

(* --- valid encodings --------------------------------------------------------- *)

let src = A.Ipv4.of_string "10.0.0.2"
let dst = A.Ipv4.of_string "10.0.0.1"

(* The bytes [encode] leaves in a netbuf that started as [payload]. *)
let encoded ?(payload = "payload!") encode =
  let nb = Nb.of_bytes ~headroom:128 (Bytes.of_string payload) in
  encode nb;
  let buf, off, len = Nb.view nb in
  Bytes.sub_string buf off len

let on_netbuf f s = accepts (f (Nb.of_bytes (Bytes.of_string s)))
let on_bytes f s = accepts (f (Bytes.of_string s))

let tcp_segment =
  { P.Tcp.src_port = 20123; dst_port = 80; seq = 1000; ack = 2000; syn = false;
    ack_flag = true; fin = false; rst = false; psh = true; window = 65535 }

let libparam_parse s =
  let module L = Uklibparam.Libparam in
  let t = L.create () in
  L.register t ~lib:"netdev" ~name:"ip" (L.String "172.44.0.2");
  L.register t ~lib:"ukdebug" ~name:"loglevel" (L.Int 3);
  L.register t ~lib:"vfs" ~name:"cache" (L.Bool false);
  accepts (L.parse t s)

(* The store's on-disk lines and frames, as its writer leaves them: a
   leaf frame and a commit frame, and the first line of a root slot, a
   record header and a record trailer read back from a ramdisk. *)
module St = Ukstore.Store
module Tr = Ukstore.Tree

let frame o =
  St.encode_frame ~loc:(fun h -> (h land 0xffff, 90)) (Tr.hash_of_obj o) o ~addr:0x1200

let first_line sec =
  let s = Bytes.to_string sec in
  String.sub s 0 (String.index s '\n' + 1)

let slot_line, header_line, trailer_line =
  let clock = Uksim.Clock.create () in
  let dev = Ukblock.Virtio_blk.create_ramdisk ~clock ~capacity_sectors:64 () in
  let read lba = Result.get_ok (dev.Ukblock.Blockdev.read_sync ~lba ~sectors:1) in
  let t = Result.get_ok (St.format ~clock ~journal_sectors:8 dev) in
  ignore (St.set t "k" "v");
  ignore (St.commit t ());
  (* One record of one payload sector: lba 2, 3 and 4. *)
  (first_line (read 0), first_line (read 2), first_line (read 4))

let on_sector f s = f (Bytes.of_string s) <> None

(* A framer accepts when it frames a request; a frame that ends outside
   the bytes it was given is a failure, like an exception. *)
let framed frame s =
  let n = String.length s in
  match frame (Bytes.of_string s) 0 n with
  | Ukapps.Serve.Frame (_, next) ->
      if next <= 0 || next > n then failwith "frame ends outside its input";
      true
  | Ukapps.Serve.Partial | Ukapps.Serve.Bad _ -> false

let decoders =
  [
    { name = "Pkt.Eth.decode";
      valid =
        encoded (P.Eth.encode
                   { P.Eth.dst = A.Mac.of_int 0x1; src = A.Mac.of_int 0x2; proto = P.Eth.Ipv4 });
      decode = on_netbuf P.Eth.decode };
    { name = "Pkt.Arp.decode";
      valid =
        encoded ~payload:""
          (P.Arp.encode
             { P.Arp.op = P.Arp.Request; sha = A.Mac.of_int 0x2; spa = src;
               tha = A.Mac.of_int 0; tpa = dst });
      decode = on_netbuf P.Arp.decode };
    { name = "Pkt.Ipv4.decode";
      valid = encoded (P.Ipv4.encode (P.Ipv4.header ~src ~dst ~proto:P.Ipv4.Udp ~payload_len:8));
      decode = on_netbuf P.Ipv4.decode };
    { name = "Pkt.Icmp.decode";
      valid = encoded (P.Icmp.encode { P.Icmp.echo_reply = false; ident = 7; seq = 1 });
      decode = on_netbuf P.Icmp.decode };
    { name = "Pkt.Udp.decode";
      valid = encoded (P.Udp.encode { P.Udp.src_port = 6000; dst_port = 53 } ~src ~dst);
      decode = on_netbuf (P.Udp.decode ~src ~dst) };
    { name = "Pkt.Tcp.decode";
      valid = encoded (P.Tcp.encode tcp_segment ~src ~dst);
      decode = on_netbuf (P.Tcp.decode ~src ~dst) };
    { name = "Ninep.decode";
      valid =
        Bytes.to_string
          (Ukvfs.Ninep.encode
             { Ukvfs.Ninep.tag = 3;
               body = Ukvfs.Ninep.Twalk { fid = 1; newfid = 2; wnames = [ "etc"; "hosts" ] } });
      decode = on_bytes Ukvfs.Ninep.decode };
    { name = "Dns.decode";
      valid = Bytes.to_string (Ukapps.Dns.encode (Ukapps.Dns.query "www.example.com" Ukapps.Dns.A));
      decode = on_bytes Ukapps.Dns.decode };
    { name = "Resp_store.frame";
      valid = Ukapps.Resp.encode_command [ "SET"; "key:000001"; "xxx" ];
      decode = framed Ukapps.Resp_store.frame };
    { name = "Sql.parse";
      valid = "SELECT COUNT(*) FROM t WHERE id >= 5";
      decode = (fun s -> accepts (Ukapps.Sql.parse s)) };
    { name = "Ukcompat.Trace.of_string";
      valid = Ukcompat.Trace.to_string (Ukcompat.Driver.trace_of Ukcompat.Driver.Redis);
      decode = (fun s -> accepts (Ukcompat.Trace.of_string s)) };
    { name = "Libparam.parse";
      valid = "netdev.ip=10.0.0.5 ukdebug.loglevel=4K vfs.cache=on -- app args";
      decode = libparam_parse };
    { name = "Schedule.of_string";
      valid =
        Ukcheck.Schedule.to_string
          { Ukcheck.Schedule.seed = 1; cores = 2;
            decisions =
              [ { kind = "dispatch@0"; arity = 2; choice = 1 };
                { kind = "step_core"; arity = 3; choice = 2 } ] };
      decode = (fun s -> Ukcheck.Schedule.of_string s <> None) };
    { name = "Httpd.frame";
      valid = "GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n";
      decode = framed Ukapps.Httpd.frame };
    { name = "Serve.line";
      valid = "SET key:000001 xxx\n";
      decode = framed Ukapps.Serve.line };
    { name = "Store.decode_frame (leaf)";
      valid = frame (Tr.Node (Tr.Leaf [ ("key\x00one", 0x1234); ("\xffk2", 0x5678) ]));
      decode = (fun s -> St.decode_frame s 0 <> None) };
    { name = "Store.decode_frame (commit)";
      valid = frame (Tr.Commit { root = 0xabc; parents = [ 0xdef; 0x123 ]; msg = "m\nsg" });
      decode = (fun s -> St.decode_frame s 0 <> None) };
    { name = "Store.parse_slot";
      valid = slot_line;
      decode = on_sector St.parse_slot };
    { name = "Store.parse_jheader";
      valid = header_line;
      decode = on_sector St.parse_jheader };
    { name = "Store.parse_jtrailer";
      valid = trailer_line;
      decode = on_sector St.parse_jtrailer };
  ]

(* The seeds themselves must decode, or truncations and flips would only
   ever probe the first error path. *)
let test_valid_seeds_decode () =
  List.iter
    (fun d -> Alcotest.(check bool) (d.name ^ " accepts its valid seed") true (d.decode d.valid))
    decoders

(* httpd's framer as it was before its skip-scan, a byte at a time: the
   first "\r\n\r\n" in [pos, limit), then the path of a "GET <path> "
   request line. *)
let bytewise_http_frame buf pos limit =
  let rec find i =
    if i + 4 > limit then None
    else if Bytes.sub_string buf i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find pos with
  | None -> Ukapps.Serve.Partial
  | Some next ->
      let eol = Bytes.index_from buf pos '\r' in
      let path =
        if eol - pos > 4 && Bytes.sub_string buf pos 4 = "GET " then
          match Bytes.index_from_opt buf (pos + 4) ' ' with
          | Some sp when sp < eol -> Some (Bytes.sub_string buf (pos + 4) (sp - pos - 4))
          | Some _ | None -> None
        else None
      in
      Ukapps.Serve.Frame (path, next)

(* Requests framed inside a larger buffer, as in a ring netbuf: 1-8
   bytes before [pos], 0-300 bytes framed (in half the cases of 5 or
   more, the first 5 are "GET /"), 1-8 bytes after [limit], all over the
   bytes a request line and its blank line are made of, CR and LF the
   likeliest. *)
let http_frame_matches_bytewise_prop =
  let open QCheck.Gen in
  let text n =
    string_size (return n)
      ~gen:(frequencyl
              [ (3, '\r'); (3, '\n'); (1, 'G'); (1, 'E'); (1, 'T'); (2, ' '); (1, '/'); (1, 'x') ])
  in
  let input =
    map
      (fun (before, (get, body), after) ->
        let n = String.length body in
        let body = if get && n >= 5 then "GET /" ^ String.sub body 5 (n - 5) else body in
        (before ^ body ^ after, String.length before, String.length before + String.length body))
      (triple (int_range 1 8 >>= text)
         (pair bool (int_range 0 300 >>= text))
         (int_range 1 8 >>= text))
  in
  QCheck.Test.make ~name:"Httpd.frame equals the byte-at-a-time framer" ~count:2000
    (QCheck.make ~print:(fun (s, pos, limit) -> Printf.sprintf "pos=%d limit=%d %S" pos limit s) input)
    (fun (s, pos, limit) ->
      let buf = Bytes.of_string s in
      Ukapps.Httpd.frame buf pos limit = bytewise_http_frame buf pos limit)

(* --- IPv4 reassembly --------------------------------------------------------- *)

module Frag = Uknetstack.Frag

let frag_sources = [| src; dst |]

let print_frag (s, id, proto, off, len, mf) =
  Printf.sprintf "(src %d, id %d, proto %d, off %d, %d B, MF %b)" s id proto off len mf

(* One fragment from 2 sources x ids 0-3 x {TCP, UDP}: offset 8k for k
   in 0-8191 (half of them in 0-15, where datagrams can complete), a
   0-1480 B payload, random MF. *)
let hostile_fragment =
  let open QCheck.Gen in
  map
    (fun (((s, id), (tcp, k)), (len, mf)) -> (s, id, (if tcp then 6 else 17), 8 * k, len, mf))
    (pair
       (pair (pair (int_bound 1) (int_bound 3))
          (pair bool (frequency [ (1, int_bound 8191); (1, int_bound 15) ])))
       (pair (int_bound 1480) bool))

let frag_total_prop =
  QCheck.Test.make ~name:"Frag.insert is total on hostile fragments, at most 64 pending"
    ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_frag)
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 200) hostile_fragment))
    (fun frags ->
      let t = Frag.create ~clock:(Uksim.Clock.create ()) () in
      List.for_all
        (fun (s, id, proto, off, len, mf) ->
          ignore
            (Frag.insert t ~src:frag_sources.(s) ~id ~proto ~frag_offset:off ~more_frags:mf
               (Bytes.make len 'x'));
          Frag.pending_datagrams t <= 64)
        frags)

(* Fragments of UDP datagrams 0-99 from one source: mostly small
   offsets (80% with MF set), and one in ten oversized, ending past
   65,535 B. *)
let crowding_fragment =
  let open QCheck.Gen in
  pair (int_bound 99)
    (frequency
       [
         (9, map2 (fun k mf -> (8 * k, 8, mf)) (int_bound 15) (frequencyl [ (4, true); (1, false) ]));
         (1, map2 (fun k len -> (65528 - (8 * k), len, true)) (int_bound 8) (int_range 100 1480));
       ])

(* A model of the pending datagrams, oldest first: the clock ticks
   before every fragment, so the datagram the table evicts to start a
   65th is the first one started. A Rejected fragment takes only its own
   datagram out, and counts no eviction. *)
let frag_rejected_prop =
  QCheck.Test.make ~name:"a Rejected Frag.insert removes no pending datagram but its own"
    ~count:200
    (QCheck.make
       ~print:(QCheck.Print.list (fun (id, (off, len, mf)) ->
                   print_frag (0, id, 17, off, len, mf)))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 100 400) crowding_fragment))
    (fun frags ->
      let clock = Uksim.Clock.create () in
      let t = Frag.create ~clock () in
      let pending = ref [] in
      List.for_all
        (fun (id, (off, len, mf)) ->
          Uksim.Clock.advance clock 1;
          let expired = Frag.expired t in
          let before = !pending in
          let started = List.mem id before in
          let room = if started || List.length before < 64 then before else List.tl before in
          let verdict =
            Frag.insert t ~src ~id ~proto:17 ~frag_offset:off ~more_frags:mf (Bytes.make len 'x')
          in
          (pending :=
             match verdict with
             | Frag.Rejected _ -> List.filter (( <> ) id) before
             | Frag.Complete _ -> List.filter (( <> ) id) room
             | Frag.Pending -> if started then before else room @ [ id ]);
          (match verdict with Frag.Rejected _ -> Frag.expired t = expired | _ -> true)
          && Frag.pending_datagrams t = List.length !pending)
        frags)

(* A 0-4000 B payload cut at random 8-byte-aligned offsets into
   (offset, length, MF) fragments, some sent twice, in random order. *)
let split_payload =
  let open QCheck.Gen in
  string_size ~gen:char (int_range 0 4000) >>= fun payload ->
  let n = String.length payload in
  list_size (int_range 0 12) (int_range 1 (max 1 ((n - 1) / 8))) >>= fun ks ->
  let cuts = List.sort_uniq compare (List.filter (fun c -> c < n) (List.map (( * ) 8) ks)) in
  let rec pieces = function
    | a :: (b :: _ as rest) -> (a, b - a, rest <> [ n ]) :: pieces rest
    | [ _ ] | [] -> []
  in
  let frags = pieces ((0 :: cuts) @ [ n ]) in
  list_size (int_range 0 4) (oneofl frags) >>= fun dups ->
  shuffle_l (frags @ dups) >|= fun order -> (payload, order)

let frag_roundtrip_prop =
  QCheck.Test.make ~name:"Frag reassembles shuffled, duplicated fragments exactly" ~count:500
    (QCheck.make
       ~print:(fun (payload, order) ->
         Printf.sprintf "%d B payload, fragments %s" (String.length payload)
           (QCheck.Print.list (fun (off, len, mf) -> Printf.sprintf "(%d, %d, %b)" off len mf) order))
       split_payload)
    (fun (payload, order) ->
      let t = Frag.create ~clock:(Uksim.Clock.create ()) () in
      let rec first_complete = function
        | [] -> false
        | (off, len, mf) :: rest -> (
            match
              Frag.insert t ~src ~id:7 ~proto:17 ~frag_offset:off ~more_frags:mf
                (Bytes.of_string (String.sub payload off len))
            with
            | Frag.Complete b -> Bytes.to_string b = payload
            | Frag.Pending -> first_complete rest
            | Frag.Rejected _ -> false)
      in
      first_complete order)

let suite =
  Alcotest.test_case "every valid seed decodes" `Quick test_valid_seeds_decode
  :: QCheck_alcotest.to_alcotest http_frame_matches_bytewise_prop
  :: List.map (fun d -> QCheck_alcotest.to_alcotest (total d)) decoders
  @ List.map QCheck_alcotest.to_alcotest
      [ frag_total_prop; frag_rejected_prop; frag_roundtrip_prop ]
