(** The fleet's L4 front door: backend selection policies.

    The front door owns {e which} backend instance a request lands on;
    the fleet owns the event plumbing around it (queues, completions,
    admission, shedding). Keeping the policy state pure and deterministic
    — no clocks, no RNG — is what lets a seeded fleet run replay
    byte-identically under any policy.

    Three classic L4 policies:
    - {e round robin}: rotate over ready members;
    - {e least loaded}: the member with the smallest backlog estimate
      (ties to the lowest id);
    - {e consistent hash}: members are placed on a hash ring with
      [vnodes] virtual nodes each; a request's flow hashes to its ring
      successor, so member churn only remaps the failed arc — the policy
      that keeps per-flow affinity across scale-out. *)

type policy = Round_robin | Least_loaded | Consistent_hash
type t

val create : ?vnodes:int -> policy -> t
(** [vnodes] (default 32) only matters for [Consistent_hash]. *)

val add : t -> int -> unit
(** Add a member id (a backend that became ready). Idempotent. *)

val remove : t -> int -> unit
(** Remove a member (crashed, retired). Idempotent; also clears any
    quarantine on it. *)

val quarantine : t -> int -> unit
(** Exclude a member from {!pick} {e without} removing it: its ring
    points stay in place, so flows divert to live successors while it is
    out and return to the exact same member on {!unquarantine}. This is
    the failure detector's suspect state — a false positive costs no
    arc remapping, unlike {!remove}. No-op on non-members. *)

val unquarantine : t -> int -> unit
(** Readmit a quarantined member. Idempotent. *)

val members : t -> int list
(** Ascending ids, including quarantined members. *)

val pick : t -> flow:int -> load:(int -> float) -> int option
(** Choose a member for a request of [flow]: [None] iff no members.
    [load] is the backlog estimate the least-loaded policy minimizes. *)
