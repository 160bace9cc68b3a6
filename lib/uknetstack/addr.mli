(** Link- and network-layer addresses. *)

module Mac : sig
  type t
  (** 48-bit ethernet address. *)

  val of_int : int -> t
  val to_int : t -> int
  val broadcast : t
  val is_broadcast : t -> bool
  val of_string : string -> t
  (** "aa:bb:cc:dd:ee:ff"; raises [Invalid_argument] on bad syntax. *)

  val to_string : t -> string
  val equal : t -> t -> bool
end

module Ipv4 : sig
  type t
  (** 32-bit address. *)

  val of_int : int -> t
  val to_int : t -> int
  val of_string : string -> t
  (** "10.0.0.1"; raises [Invalid_argument] on bad syntax. *)

  val to_string : t -> string
  val equal : t -> t -> bool
  val any : t
  val broadcast : t

  val same_subnet : t -> t -> netmask:t -> bool
end
