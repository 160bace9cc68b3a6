(** Intra-unikernel compartmentalization with Intel MPK (paper §7:
    "initial support for hardware compartmentalization with Intel MPK",
    and the Iso-Unik / libmpk line of work it cites).

    MPK tags pages with one of 16 protection keys; a per-thread register
    (PKRU) grants or denies read/write per key, switchable in user mode in
    ~20-30 cycles (no page-table walk). We model exactly that: a
    {!Domain_}: a protection key; address ranges are bound to keys at page
    granularity; every access is checked against the current PKRU value;
    {!Gate}s implement the call-gate discipline (switch PKRU, call,
    restore) used to cross compartments safely. *)

type t
type key = private int

exception Protection_fault of { addr : int; key : int; write : bool }

val create : clock:Uksim.Clock.t -> t

val alloc_key : t -> ?name:string -> unit -> (key, string) result
(** At most 15 allocatable keys (key 0 is the default domain), as in
    hardware. *)

val key_name : t -> key -> string
val free_key : t -> key -> unit
(** Unbinds all ranges bound to the key. *)

val default_key : key

val bind_range : t -> key -> base:int -> len:int -> unit
(** Tag [base, base+len) (page-granular, 4 KiB) with [key]; raises
    [Invalid_argument] if any page is already bound to another key. *)

val key_of_addr : t -> int -> key
(** [default_key] for unbound addresses. *)

(** {1 PKRU} *)

type rights = No_access | Read_only | Read_write

val set_rights : t -> key -> rights -> unit
(** Update the current thread's PKRU entry for [key]. Charges the WRPKRU
    cost. *)

val load : t -> int -> unit
val store : t -> int -> unit
(** Validate the access at the current PKRU, raising {!Protection_fault}
    if the key denies it, then charge the memory access. *)

(** {1 Call gates} *)

module Gate : sig
  type mpk := t
  type t

  val create : mpk -> target_key:key -> t
  (** A gate into the compartment [target_key]. *)

  val enter : t -> (unit -> 'a) -> 'a
  (** Switch PKRU to grant [Read_write] on the target key and revoke
      write on the default domain for the duration of the call, then
      restore the previous PKRU — the paper's "maintain safety properties
      as the image is linked together" discipline. Exceptions restore the
      PKRU before propagating. *)

  val crossings : t -> int
end

val wrpkru_cost : int
(** Cycles per PKRU update (~23 on Skylake-class hardware). *)

val faults : t -> int
