(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the simulator flows through explicit [Rng.t] states so
    experiments are reproducible bit-for-bit across runs. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val next : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

(** {1 Hashing} *)

val avalanche : int -> int
(** A splitmix64-style finalizer over the non-negative int range: each
    input bit flips about half of the output bits. *)

val mix : int -> int -> int
(** [mix h v] is [avalanche (h lxor v)]: folds [v] into the rolling hash
    [h]. *)
