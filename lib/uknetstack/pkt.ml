module Nb = Uknetdev.Netbuf
module W = Wire_fmt

let set_mac b off mac =
  let m = Addr.Mac.to_int mac in
  W.set_u16 b off (m lsr 32);
  W.set_u32 b (off + 2) (m land 0xffffffff)

let get_mac b off = Addr.Mac.of_int ((W.get_u16 b off lsl 32) lor W.get_u32 b (off + 2))

module Eth = struct
  type proto = Ipv4 | Arp | Unknown of int

  type t = { dst : Addr.Mac.t; src : Addr.Mac.t; proto : proto }

  let size = 14
  let ethertype = function Ipv4 -> 0x0800 | Arp -> 0x0806 | Unknown v -> v

  let proto_of = function 0x0800 -> Ipv4 | 0x0806 -> Arp | v -> Unknown v

  let encode t nb =
    Nb.push nb size;
    let b = Nb.data nb and o = Nb.offset nb in
    set_mac b o t.dst;
    set_mac b (o + 6) t.src;
    W.set_u16 b (o + 12) (ethertype t.proto)

  let decode nb =
    if Nb.len nb < size then Error "eth: truncated frame"
    else begin
      let b = Nb.data nb and o = Nb.offset nb in
      let t =
        { dst = get_mac b o; src = get_mac b (o + 6); proto = proto_of (W.get_u16 b (o + 12)) }
      in
      Nb.pull nb size;
      Ok t
    end
end

module Arp = struct
  type op = Request | Reply

  type t = {
    op : op;
    sha : Addr.Mac.t;
    spa : Addr.Ipv4.t;
    tha : Addr.Mac.t;
    tpa : Addr.Ipv4.t;
  }

  let size = 28

  let encode t nb =
    Nb.set_len nb 0;
    Nb.push nb size;
    let b = Nb.data nb and o = Nb.offset nb in
    W.set_u16 b o 1 (* htype: ethernet *);
    W.set_u16 b (o + 2) 0x0800 (* ptype: ipv4 *);
    W.set_u8 b (o + 4) 6;
    W.set_u8 b (o + 5) 4;
    W.set_u16 b (o + 6) (match t.op with Request -> 1 | Reply -> 2);
    set_mac b (o + 8) t.sha;
    W.set_u32 b (o + 14) (Addr.Ipv4.to_int t.spa);
    set_mac b (o + 18) t.tha;
    W.set_u32 b (o + 24) (Addr.Ipv4.to_int t.tpa)

  let decode nb =
    if Nb.len nb < size then Error "arp: truncated packet"
    else begin
      let b = Nb.data nb and o = Nb.offset nb in
      if W.get_u16 b o <> 1 || W.get_u16 b (o + 2) <> 0x0800 then Error "arp: not ethernet/ipv4"
      else
        match W.get_u16 b (o + 6) with
        | (1 | 2) as opn ->
            let t =
              {
                op = (if opn = 1 then Request else Reply);
                sha = get_mac b (o + 8);
                spa = Addr.Ipv4.of_int (W.get_u32 b (o + 14));
                tha = get_mac b (o + 18);
                tpa = Addr.Ipv4.of_int (W.get_u32 b (o + 24));
              }
            in
            Nb.pull nb size;
            Ok t
        | n -> Error (Printf.sprintf "arp: unknown op %d" n)
    end
end

module Ipv4 = struct
  type proto = Icmp | Tcp | Udp | Unknown of int

  type t = {
    src : Addr.Ipv4.t;
    dst : Addr.Ipv4.t;
    proto : proto;
    ttl : int;
    payload_len : int;
    id : int;
    more_frags : bool;
    frag_offset : int;
  }

  let header ~src ~dst ~proto ~payload_len =
    { src; dst; proto; ttl = 64; payload_len; id = 0; more_frags = false; frag_offset = 0 }

  let is_fragment t = t.more_frags || t.frag_offset > 0

  let size = 20
  let proto_number = function Icmp -> 1 | Tcp -> 6 | Udp -> 17 | Unknown v -> v
  let proto_of = function 1 -> Icmp | 6 -> Tcp | 17 -> Udp | v -> Unknown v

  let encode t nb =
    Nb.push nb size;
    let b = Nb.data nb and o = Nb.offset nb in
    W.set_u8 b o 0x45 (* v4, ihl 5 *);
    W.set_u8 b (o + 1) 0 (* dscp *);
    W.set_u16 b (o + 2) (size + t.payload_len);
    W.set_u16 b (o + 4) (t.id land 0xffff);
    if t.frag_offset land 7 <> 0 then invalid_arg "Ipv4.encode: offset not 8-byte aligned";
    W.set_u16 b (o + 6) ((if t.more_frags then 0x2000 else 0) lor (t.frag_offset / 8));
    W.set_u8 b (o + 8) t.ttl;
    W.set_u8 b (o + 9) (proto_number t.proto);
    W.set_u16 b (o + 10) 0;
    W.set_u32 b (o + 12) (Addr.Ipv4.to_int t.src);
    W.set_u32 b (o + 16) (Addr.Ipv4.to_int t.dst);
    W.set_u16 b (o + 10) (W.checksum b ~off:o ~len:size)

  let decode nb =
    if Nb.len nb < size then Error "ipv4: truncated header"
    else begin
      let b = Nb.data nb and o = Nb.offset nb in
      let vihl = W.get_u8 b o in
      if vihl <> 0x45 then Error "ipv4: not v4/ihl5"
      else if W.checksum b ~off:o ~len:size <> 0 then Error "ipv4: bad header checksum"
      else begin
        let total = W.get_u16 b (o + 2) in
        if total < size || total > Nb.len nb then Error "ipv4: bad total length"
        else begin
          let flags_frag = W.get_u16 b (o + 6) in
          let t =
            {
              src = Addr.Ipv4.of_int (W.get_u32 b (o + 12));
              dst = Addr.Ipv4.of_int (W.get_u32 b (o + 16));
              proto = proto_of (W.get_u8 b (o + 9));
              ttl = W.get_u8 b (o + 8);
              payload_len = total - size;
              id = W.get_u16 b (o + 4);
              more_frags = flags_frag land 0x2000 <> 0;
              frag_offset = (flags_frag land 0x1fff) * 8;
            }
          in
          (* Trim ethernet padding, then strip the header. *)
          Nb.set_len nb total;
          Nb.pull nb size;
          Ok t
        end
      end
    end
end

module Icmp = struct
  type t = { echo_reply : bool; ident : int; seq : int }

  let size = 8

  let encode t nb =
    Nb.push nb size;
    let b = Nb.data nb and o = Nb.offset nb in
    W.set_u8 b o (if t.echo_reply then 0 else 8);
    W.set_u8 b (o + 1) 0;
    W.set_u16 b (o + 2) 0;
    W.set_u16 b (o + 4) t.ident;
    W.set_u16 b (o + 6) t.seq;
    W.set_u16 b (o + 2) (W.checksum b ~off:o ~len:(Nb.len nb))

  let decode nb =
    if Nb.len nb < size then Error "icmp: truncated"
    else begin
      let b = Nb.data nb and o = Nb.offset nb in
      if W.checksum b ~off:o ~len:(Nb.len nb) <> 0 then Error "icmp: bad checksum"
      else
        match W.get_u8 b o with
        | (0 | 8) as ty ->
            let t =
              { echo_reply = ty = 0; ident = W.get_u16 b (o + 4); seq = W.get_u16 b (o + 6) }
            in
            Nb.pull nb size;
            Ok t
        | ty -> Error (Printf.sprintf "icmp: unsupported type %d" ty)
    end
end

(* The pseudo-header's six 16-bit words, summed unfolded: [W.checksum]
   folds its [initial] with the rest. *)
let pseudo_sum ~src ~dst ~proto ~len =
  let s = Addr.Ipv4.to_int src and d = Addr.Ipv4.to_int dst in
  (s lsr 16) + (s land 0xffff) + (d lsr 16) + (d land 0xffff) + proto + len

module Udp = struct
  type t = { src_port : int; dst_port : int }

  let size = 8

  let encode t ~src ~dst nb =
    Nb.push nb size;
    let b = Nb.data nb and o = Nb.offset nb in
    let len = Nb.len nb in
    W.set_u16 b o t.src_port;
    W.set_u16 b (o + 2) t.dst_port;
    W.set_u16 b (o + 4) len;
    W.set_u16 b (o + 6) 0;
    let ph = pseudo_sum ~src ~dst ~proto:17 ~len in
    let csum = W.checksum ~initial:ph b ~off:o ~len in
    W.set_u16 b (o + 6) (if csum = 0 then 0xffff else csum)

  let decode ~src ~dst nb =
    if Nb.len nb < size then Error "udp: truncated"
    else begin
      let b = Nb.data nb and o = Nb.offset nb in
      let len = W.get_u16 b (o + 4) in
      if len < size || len > Nb.len nb then Error "udp: bad length"
      else begin
        Nb.set_len nb len;
        let ph = pseudo_sum ~src ~dst ~proto:17 ~len in
        if W.get_u16 b (o + 6) <> 0 && W.checksum ~initial:ph b ~off:o ~len <> 0 then
          Error "udp: bad checksum"
        else begin
          let t = { src_port = W.get_u16 b o; dst_port = W.get_u16 b (o + 2) } in
          Nb.pull nb size;
          Ok t
        end
      end
    end
end

module Tcp = struct
  type t = {
    src_port : int;
    dst_port : int;
    seq : int;
    ack : int;
    syn : bool;
    ack_flag : bool;
    fin : bool;
    rst : bool;
    psh : bool;
    window : int;
  }

  let size = 20

  let flags_byte t =
    (if t.fin then 1 else 0)
    lor (if t.syn then 2 else 0)
    lor (if t.rst then 4 else 0)
    lor (if t.psh then 8 else 0)
    lor if t.ack_flag then 16 else 0

  let encode t ~src ~dst nb =
    Nb.push nb size;
    let b = Nb.data nb and o = Nb.offset nb in
    let len = Nb.len nb in
    W.set_u16 b o t.src_port;
    W.set_u16 b (o + 2) t.dst_port;
    W.set_u32 b (o + 4) (t.seq land 0xffffffff);
    W.set_u32 b (o + 8) (t.ack land 0xffffffff);
    W.set_u8 b (o + 12) 0x50 (* data offset 5 *);
    W.set_u8 b (o + 13) (flags_byte t);
    W.set_u16 b (o + 14) (min t.window 0xffff);
    W.set_u16 b (o + 16) 0;
    W.set_u16 b (o + 18) 0 (* urgent *);
    let ph = pseudo_sum ~src ~dst ~proto:6 ~len in
    W.set_u16 b (o + 16) (W.checksum ~initial:ph b ~off:o ~len)

  let decode ~src ~dst nb =
    if Nb.len nb < size then Error "tcp: truncated"
    else begin
      let b = Nb.data nb and o = Nb.offset nb in
      let doff = (W.get_u8 b (o + 12) lsr 4) * 4 in
      if doff < size || doff > Nb.len nb then Error "tcp: bad data offset"
      else begin
        let ph = pseudo_sum ~src ~dst ~proto:6 ~len:(Nb.len nb) in
        if W.checksum ~initial:ph b ~off:o ~len:(Nb.len nb) <> 0 then Error "tcp: bad checksum"
        else begin
          let fl = W.get_u8 b (o + 13) in
          let t =
            {
              src_port = W.get_u16 b o;
              dst_port = W.get_u16 b (o + 2);
              seq = W.get_u32 b (o + 4);
              ack = W.get_u32 b (o + 8);
              fin = fl land 1 <> 0;
              syn = fl land 2 <> 0;
              rst = fl land 4 <> 0;
              psh = fl land 8 <> 0;
              ack_flag = fl land 16 <> 0;
              window = W.get_u16 b (o + 14);
            }
          in
          Nb.pull nb doff;
          Ok t
        end
      end
    end
end
