module S = Uknetstack.Stack
module A = Uknetstack.Addr

type qtype = A | Aaaa | Cname | Ns | Txt | Unknown_qtype of int

type rcode = No_error | Form_err | Serv_fail | Nx_domain | Not_impl

type question = { qname : string; qtype : qtype }

type rr = { name : string; rtype : qtype; ttl : int; rdata : rdata }

and rdata =
  | Ipv4_addr of A.Ipv4.t
  | Ipv6_addr of string
  | Name of string
  | Text of string

type message = {
  id : int;
  query : bool;
  rcode : rcode;
  recursion_desired : bool;
  questions : question list;
  answers : rr list;
  authority : rr list;
}

let qtype_code = function
  | A -> 1
  | Ns -> 2
  | Cname -> 5
  | Txt -> 16
  | Aaaa -> 28
  | Unknown_qtype v -> v

let qtype_of_code = function
  | 1 -> A
  | 2 -> Ns
  | 5 -> Cname
  | 16 -> Txt
  | 28 -> Aaaa
  | v -> Unknown_qtype v

let rcode_code = function
  | No_error -> 0
  | Form_err -> 1
  | Serv_fail -> 2
  | Nx_domain -> 3
  | Not_impl -> 4

let rcode_of_code = function
  | 0 -> No_error
  | 1 -> Form_err
  | 2 -> Serv_fail
  | 3 -> Nx_domain
  | _ -> Not_impl

let normalize name = String.lowercase_ascii name

(* --- encoding ------------------------------------------------------------- *)

let u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let u32 buf v =
  u16 buf (v lsr 16);
  u16 buf (v land 0xffff)

(* Write a domain name, compressing against suffixes already emitted.
   [seen] maps a normalized suffix ("example.com") to its offset. *)
let write_name buf seen name =
  let labels = List.filter (fun l -> l <> "") (String.split_on_char '.' (normalize name)) in
  let rec go = function
    | [] -> Buffer.add_char buf '\000'
    | (label :: rest) as suffix_labels ->
        let suffix = String.concat "." suffix_labels in
        (match Hashtbl.find_opt seen suffix with
        | Some off ->
            (* 2-byte compression pointer: 0b11 prefix. *)
            u16 buf (0xc000 lor off)
        | None ->
            if Buffer.length buf < 0x3fff then Hashtbl.replace seen suffix (Buffer.length buf);
            if String.length label > 63 then invalid_arg "Dns: label too long";
            Buffer.add_char buf (Char.chr (String.length label));
            Buffer.add_string buf label;
            go rest)
  in
  go labels

let write_rdata buf seen = function
  | Ipv4_addr ip -> u32 buf (A.Ipv4.to_int ip)
  | Ipv6_addr s | Text s ->
      Buffer.add_char buf (Char.chr (min 255 (String.length s)));
      Buffer.add_string buf (String.sub s 0 (min 255 (String.length s)))
  | Name n -> write_name buf seen n

let write_rr buf seen (r : rr) =
  write_name buf seen r.name;
  u16 buf (qtype_code r.rtype);
  u16 buf 1 (* class IN *);
  u32 buf r.ttl;
  (* rdlength back-patched. *)
  let len_pos = Buffer.length buf in
  u16 buf 0;
  let before = Buffer.length buf in
  write_rdata buf seen r.rdata;
  let rdlen = Buffer.length buf - before in
  let out = Buffer.to_bytes buf in
  Bytes.set out len_pos (Char.chr ((rdlen lsr 8) land 0xff));
  Bytes.set out (len_pos + 1) (Char.chr (rdlen land 0xff));
  Buffer.clear buf;
  Buffer.add_bytes buf out

let encode m =
  let buf = Buffer.create 128 in
  let seen = Hashtbl.create 16 in
  u16 buf m.id;
  let flags =
    (if m.query then 0 else 0x8000)
    lor (if m.recursion_desired then 0x0100 else 0)
    lor rcode_code m.rcode
  in
  u16 buf flags;
  u16 buf (List.length m.questions);
  u16 buf (List.length m.answers);
  u16 buf (List.length m.authority);
  u16 buf 0 (* additional *);
  List.iter
    (fun q ->
      write_name buf seen q.qname;
      u16 buf (qtype_code q.qtype);
      u16 buf 1)
    m.questions;
  List.iter (fun r -> write_rr buf seen r) m.answers;
  List.iter (fun r -> write_rr buf seen r) m.authority;
  Buffer.to_bytes buf

(* --- decoding ------------------------------------------------------------- *)

exception Bad of string

let rd_u8 b pos =
  if pos >= Bytes.length b then raise (Bad "truncated");
  Char.code (Bytes.get b pos)

let rd_u16 b pos = (rd_u8 b pos lsl 8) lor rd_u8 b (pos + 1)
let rd_u32 b pos = (rd_u16 b pos lsl 16) lor rd_u16 b (pos + 2)

(* Returns (name, next position). Follows compression pointers with a hop
   bound so crafted loops cannot hang the parser. *)
let rd_name b pos =
  let rec go pos hops acc =
    if hops > 32 then raise (Bad "compression loop");
    let len = rd_u8 b pos in
    if len = 0 then (String.concat "." (List.rev acc), pos + 1)
    else if len land 0xc0 = 0xc0 then begin
      let target = ((len land 0x3f) lsl 8) lor rd_u8 b (pos + 1) in
      if target >= pos then raise (Bad "forward compression pointer");
      let name, _ = go target (hops + 1) acc in
      (name, pos + 2)
    end
    else begin
      if len > 63 then raise (Bad "bad label length");
      if pos + 1 + len > Bytes.length b then raise (Bad "label out of bounds");
      go (pos + 1 + len) hops (Bytes.sub_string b (pos + 1) len :: acc)
    end
  in
  go pos 0 []

let rd_question b pos =
  let qname, pos = rd_name b pos in
  let qtype = qtype_of_code (rd_u16 b pos) in
  ({ qname; qtype }, pos + 4)

let rd_rr b pos =
  let name, pos = rd_name b pos in
  let rtype = qtype_of_code (rd_u16 b pos) in
  let ttl = rd_u32 b (pos + 4) in
  let rdlen = rd_u16 b (pos + 8) in
  let rstart = pos + 10 in
  if rstart + rdlen > Bytes.length b then raise (Bad "rdata out of bounds");
  let rdata =
    match rtype with
    | A ->
        if rdlen <> 4 then raise (Bad "bad A rdata");
        Ipv4_addr (A.Ipv4.of_int (rd_u32 b rstart))
    | Cname | Ns ->
        let target, _ = rd_name b rstart in
        Name target
    | Txt | Aaaa ->
        let n = rd_u8 b rstart in
        if rstart + 1 + n > Bytes.length b then raise (Bad "bad txt rdata");
        let s = Bytes.sub_string b (rstart + 1) n in
        if rtype = Txt then Text s else Ipv6_addr s
    | Unknown_qtype _ -> Text (Bytes.sub_string b rstart rdlen)
  in
  ({ name; rtype; ttl; rdata }, rstart + rdlen)

let decode b =
  match
    if Bytes.length b < 12 then raise (Bad "short header");
    let id = rd_u16 b 0 in
    let flags = rd_u16 b 2 in
    let qd = rd_u16 b 4 and an = rd_u16 b 6 and ns = rd_u16 b 8 in
    let rec read_n f pos n acc =
      if n = 0 then (List.rev acc, pos)
      else begin
        let item, pos = f b pos in
        read_n f pos (n - 1) (item :: acc)
      end
    in
    let questions, pos = read_n rd_question 12 qd [] in
    let answers, pos = read_n rd_rr pos an [] in
    let authority, _ = read_n rd_rr pos ns [] in
    {
      id;
      query = flags land 0x8000 = 0;
      rcode = rcode_of_code (flags land 0xf);
      recursion_desired = flags land 0x0100 <> 0;
      questions;
      answers;
      authority;
    }
  with
  | m -> Ok m
  | exception Bad e -> Error ("dns: " ^ e)

let query ?(id = 0x1234) qname qtype =
  {
    id;
    query = true;
    rcode = No_error;
    recursion_desired = true;
    questions = [ { qname = normalize qname; qtype } ];
    answers = [];
    authority = [];
  }

(* --- server ----------------------------------------------------------------- *)

module Server = struct
  type t = {
    clock : Uksim.Clock.t;
    zone : (string, rr list ref) Hashtbl.t; (* normalized name -> records *)
    mutable served : int;
    mutable nx : int;
  }

  let lookup_cost = 350 (* zone hash + response assembly *)

  let add_record t ~name r =
    let key = normalize name in
    match Hashtbl.find_opt t.zone key with
    | Some l -> l := r :: !l
    | None -> Hashtbl.replace t.zone key (ref [ r ])

  let add_a t ~name addr =
    add_record t ~name
      { name = normalize name; rtype = A; ttl = 300; rdata = Ipv4_addr (A.Ipv4.of_string addr) }

  let records_for t name rtype =
    match Hashtbl.find_opt t.zone (normalize name) with
    | None -> None
    | Some l ->
        Some
          (List.filter
             (fun r -> r.rtype = rtype || r.rtype = Cname)
             (List.rev !l))

  let resolve t (m : message) =
    t.served <- t.served + 1;
    Uksim.Clock.advance t.clock lookup_cost;
    let reply rcode answers =
      { m with query = false; rcode; answers; authority = [] }
    in
    match m.questions with
    | [] -> reply Form_err []
    | { qname; qtype } :: _ -> (
        match qtype with
        | Unknown_qtype _ -> reply Not_impl []
        | _ -> (
            (* Follow CNAME chains up to 8 deep, accumulating records. *)
            let rec chase name depth acc =
              if depth > 8 then List.rev acc
              else
                match records_for t name qtype with
                | None -> List.rev acc
                | Some rs ->
                    let acc = List.rev_append rs acc in
                    (match
                       List.find_opt (fun r -> r.rtype = Cname) rs
                     with
                    | Some { rdata = Name target; _ } -> chase target (depth + 1) acc
                    | Some _ | None -> List.rev acc)
            in
            match chase qname 0 [] with
            | [] ->
                t.nx <- t.nx + 1;
                reply Nx_domain []
            | answers -> reply No_error answers))

  let create ~clock ~sched ~stack ?(port = 53) () =
    let t = { clock; zone = Hashtbl.create 64; served = 0; nx = 0 } in
    let _ =
      Uksched.Sched.spawn sched ~name:"dnsd" ~daemon:true (fun () ->
          let sock = S.Udp_socket.bind stack ~port in
          let rec loop () =
            match S.Udp_socket.recvfrom ~block:true sock with
            | None -> ()
            | Some (src, sport, payload) ->
                (match decode payload with
                | Ok m when m.query ->
                    let reply = resolve t m in
                    S.Udp_socket.sendto sock ~dst:(src, sport) (encode reply)
                | Ok _ -> () (* ignore stray responses *)
                | Error _ ->
                    (* FORMERR with whatever id we can salvage. *)
                    let id = if Bytes.length payload >= 2 then
                        (Char.code (Bytes.get payload 0) lsl 8) lor Char.code (Bytes.get payload 1)
                      else 0
                    in
                    let err =
                      { id; query = false; rcode = Form_err; recursion_desired = false;
                        questions = []; answers = []; authority = [] }
                    in
                    S.Udp_socket.sendto sock ~dst:(src, sport) (encode err));
                loop ()
          in
          loop ())
    in
    t

  let queries_served t = t.served
  let nxdomain_count t = t.nx
end

module Client = struct
  let lookup ~clock ~stack ~server ?(port = 53) ?(qtype = A) qname =
    ignore clock;
    let sock = S.Udp_socket.bind stack ~port:(20000 + (Hashtbl.hash qname land 0x3fff)) in
    let m = query qname qtype in
    S.Udp_socket.sendto sock ~dst:(server, port) (encode m);
    let result =
      match S.Udp_socket.recvfrom ~block:true sock with
      | Some (_, _, payload) -> (
          match decode payload with
          | Ok reply when reply.id = m.id -> Ok reply
          | Ok _ -> Error "dns: mismatched transaction id"
          | Error e -> Error e)
      | None -> Error "dns: socket closed"
    in
    S.Udp_socket.close sock;
    result
end
