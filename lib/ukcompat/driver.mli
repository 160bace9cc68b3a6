(** End-to-end application runs down the specialization ladder.

    Two application-class traces — nginx (static file serving: the
    document is read through ukvfs and served from the very buffer the
    read filled) and redis (SET/GET over a TCP connection, the value
    echoed back out of process memory) — each executed against a live
    harness: loopback netdev pair, one {!Uknetstack.Stack} per side, a
    ramfs-backed {!Ukvfs.Vfs}, a cooperative scheduler, and a scripted
    client fiber with seeded think-time jitter asserting the payload.

    A {!rung} picks the call convention of paper Table 1:

    - [Native]: trace entries dispatch as plain function calls (4 cy);
    - [Rewritten]: the trace compiled to a binary, [Syscall] sites
      patched by {!Uksyscall.Binary.rewrite} into direct calls — the
      function-call boundary plus binary-interpretation cycles;
    - [Compat]: the unmodified binary, each site trapping at the
      binary-compatibility cost (84 cy);
    - [Linux]: the same binary under the Linux-guest syscall cost with
      mitigations (222 cy). *)

type rung = Native | Rewritten | Compat | Linux

val rung_name : rung -> string

type app = Nginx | Redis

val trace_of : app -> Trace.t

(** {1 Running} *)

type report = {
  app : string;
  rung : rung;
  outcome : Trace.outcome;
  ladder_cycles : int;
      (** deterministic ladder metric: dispatch cost x (entries + arena
          mmap) + binary-interpreter cycles — strictly ordered down the
          ladder for a given trace *)
  wall_cycles : int;  (** full-harness virtual cycles, retries included *)
  state_hash : string;
      (** digest of client bytes, process memory, per-entry results, shim
          call counts and final clock — byte-identical across replays of
          the same (app, rung, seed) *)
  client_bytes : int;
  client_ok : bool;  (** the client fiber validated the payload *)
}

val run : ?seed:int -> rung:rung -> app -> (report, string) result

val ladder : ?seed:int -> app -> (report list, string) result
(** {!run} once per rung, in ladder order (cheapest boundary first). *)
