(** Size and time unit helpers shared across the simulator. *)

val kib : int -> int
(** [kib n] is [n] kibibytes in bytes. *)

val mib : int -> int
(** [mib n] is [n] mebibytes in bytes. *)

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable byte count ("1.4MB", "200KB", "40B"). *)

val pp_ns : Format.formatter -> float -> unit
(** Human-readable duration from nanoseconds ("1.2ms", "30us", "61.7ns"). *)

val usec : float -> float
(** [usec x] converts [x] microseconds to nanoseconds. *)

val msec : float -> float
(** [msec x] converts [x] milliseconds to nanoseconds. *)

val sec : float -> float
(** [sec x] converts [x] seconds to nanoseconds. *)
