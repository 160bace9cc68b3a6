(** DNS wire protocol (RFC 1035 subset) and an authoritative UDP server —
    the dnsmasq/bind class of workload from the paper's syscall study, and
    a second UDP-native service for the specialization experiments.

    The codec implements real RFC 1035 framing: 12-byte header, QNAME
    label encoding with {e message compression} (0xC0 pointers), A/AAAA/
    CNAME/NS/TXT records, NXDOMAIN/FORMERR rcodes. *)

type qtype = A | Aaaa | Cname | Ns | Txt | Unknown_qtype of int

type rcode = No_error | Form_err | Serv_fail | Nx_domain | Not_impl

type question = { qname : string; qtype : qtype }

type rr = {
  name : string;
  rtype : qtype;
  ttl : int;
  rdata : rdata;
}

and rdata =
  | Ipv4_addr of Uknetstack.Addr.Ipv4.t
  | Ipv6_addr of string  (** textual; we do not model v6 elsewhere *)
  | Name of string  (** CNAME / NS target *)
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

val encode : message -> bytes
(** Names are compressed against earlier occurrences. *)

val decode : bytes -> (message, string) result
(** Rejects malformed packets, out-of-bounds labels, and compression-
    pointer loops. *)

val query : ?id:int -> string -> qtype -> message
(** Convenience: a standard recursive-desired question. *)

(** {1 Authoritative server} *)

module Server : sig
  type t

  val create :
    clock:Uksim.Clock.t ->
    sched:Uksched.Sched.t ->
    stack:Uknetstack.Stack.t ->
    ?port:int ->
    unit ->
    t
  (** Binds UDP port 53 (default) and answers from its zone via a daemon
      thread. *)

  val add_record : t -> name:string -> rr -> unit
  (** Names are case-insensitive. *)

  val add_a : t -> name:string -> string -> unit
  (** [add_a t ~name "10.0.0.5"], with a 300 s TTL. *)

  val queries_served : t -> int
  val nxdomain_count : t -> int

  val resolve : t -> message -> message
  (** Pure lookup (used by tests and by the network path): follows CNAME
      chains (bounded), returns NXDOMAIN/empty sections as appropriate. *)
end

module Client : sig
  val lookup :
    clock:Uksim.Clock.t ->
    stack:Uknetstack.Stack.t ->
    server:Uknetstack.Addr.Ipv4.t ->
    ?port:int ->
    ?qtype:qtype ->
    string ->
    (message, string) result
  (** Blocking query over UDP (requires a scheduler on the stack). *)
end
