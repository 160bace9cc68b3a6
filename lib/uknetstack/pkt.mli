(** Protocol header codecs: Ethernet II, ARP, IPv4, ICMP echo, UDP, TCP.

    Encoders prepend headers into a {!Uknetdev.Netbuf.t}'s headroom;
    decoders parse and [pull] them off. All multi-byte fields are
    big-endian; IPv4/UDP/TCP checksums are computed and verified for real
    (RFC 1071, with pseudo-headers for the transport protocols). *)

module Eth : sig
  type proto = Ipv4 | Arp | Unknown of int

  type t = { dst : Addr.Mac.t; src : Addr.Mac.t; proto : proto }

  val encode : t -> Uknetdev.Netbuf.t -> unit
  val decode : Uknetdev.Netbuf.t -> (t, string) result
end

module Arp : sig
  type op = Request | Reply

  type t = {
    op : op;
    sha : Addr.Mac.t;  (** sender hardware address *)
    spa : Addr.Ipv4.t;
    tha : Addr.Mac.t;
    tpa : Addr.Ipv4.t;
  }

  val encode : t -> Uknetdev.Netbuf.t -> unit
  val decode : Uknetdev.Netbuf.t -> (t, string) result
end

module Ipv4 : sig
  type proto = Icmp | Tcp | Udp | Unknown of int

  type t = {
    src : Addr.Ipv4.t;
    dst : Addr.Ipv4.t;
    proto : proto;
    ttl : int;
    payload_len : int;  (** transport payload bytes following the header *)
    id : int;  (** identification, shared by fragments of one datagram *)
    more_frags : bool;
    frag_offset : int;  (** payload offset in bytes (multiple of 8) *)
  }

  val header : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> proto:proto -> payload_len:int -> t
  (** Unfragmented header with ttl 64 and id 0. *)

  val is_fragment : t -> bool

  val size : int
  (** 20 (no options). *)

  val encode : t -> Uknetdev.Netbuf.t -> unit
  (** Prepends the header over the current payload (which must already be
      [payload_len] bytes) and fills in the checksum. *)

  val decode : Uknetdev.Netbuf.t -> (t, string) result
  (** Verifies the checksum; trims link-layer padding beyond total
      length. *)

  val proto_number : proto -> int
end

module Icmp : sig
  type t = { echo_reply : bool; ident : int; seq : int }

  val encode : t -> Uknetdev.Netbuf.t -> unit
  val decode : Uknetdev.Netbuf.t -> (t, string) result
end

module Udp : sig
  type t = { src_port : int; dst_port : int }

  val size : int

  val encode : t -> src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Uknetdev.Netbuf.t -> unit
  (** Prepends header over the datagram payload; checksum includes the
      pseudo-header. *)

  val decode : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Uknetdev.Netbuf.t -> (t, string) result
end

module Tcp : sig
  type t = {
    src_port : int;
    dst_port : int;
    seq : int;  (** 32-bit sequence number *)
    ack : int;
    syn : bool;
    ack_flag : bool;
    fin : bool;
    rst : bool;
    psh : bool;
    window : int;
  }
  (** Encoded as a 20-byte header: MSS is implicit, no options on the wire. *)

  val encode : t -> src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Uknetdev.Netbuf.t -> unit
  val decode : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Uknetdev.Netbuf.t -> (t, string) result
end
