(** Hierarchical timing wheel — the uktime micro-library's timer engine.

    Kernel network stacks arm and cancel enormous numbers of short timers
    (TCP retransmission, delayed ACK); a hashed hierarchical wheel gives
    O(1) insert and cancel, where a heap pays O(log n) per insert. Four
    levels of 256 slots at increasing granularity, cascading on overflow —
    the classic Varghese-Lauck design used by Linux and lwIP.

    Time is the simulation's cycle counter; {!advance} fires due timers in
    order of their slots (within one slot, insertion order). *)

type t
type timer

val create : ?granularity:int -> now:int -> unit -> t
(** [granularity] = cycles per level-0 tick (default 256). *)

val arm : t -> deadline:int -> (unit -> unit) -> timer
(** Schedule a callback at an absolute cycle deadline (clamped to now+1
    if in the past). O(1). *)

val cancel : t -> timer -> bool
(** [true] if the timer was pending (O(1)); firing and double-cancel
    return [false]. *)

val advance : t -> now:int -> int
(** Move time forward, firing every timer whose deadline has passed;
    returns the number fired. Raises [Invalid_argument] if [now] goes
    backwards. *)

val pending : t -> int
val fired : t -> int
val cascades : t -> int
(** Slot-migration operations performed (the wheel's only non-O(1)
    moments). *)
