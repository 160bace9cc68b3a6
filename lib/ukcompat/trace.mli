(** Recorded syscall traces and their replay.

    A trace is an ordered list of syscall invocations — the shape an
    strace of an application's hot loop has — with a tiny argument
    language so one recording can be replayed into a live address space:

    - [I n]: immediate register value;
    - [Str s]: NUL-terminated string marshalled into the process arena,
      pointer passed;
    - [Buf n]: [n] scratch bytes in the arena, pointer passed;
    - [Sa (ip, port)]: a [struct sockaddr_in] in the arena;
    - [Slot k]: the return value of entry [k] (fd dataflow);
    - [Ptr k]: the arena address entry [k]'s first allocation got
      (e.g. write back the buffer a previous read filled).

    The text format is line-oriented: a [trace <name>] header, then one
    entry per line, ['#'] comments:

    {v
    trace redis-get
    socket(2, 1, 0) = ok
    connect($0, sa[10.0.0.1:6379], 16) = 0
    write($0, "GET k1\n", 7) = 7
    read($0, buf[64], 64) = ok !
    v}

    [= ok] asserts a non-negative return, [= *] anything, [= <int>] an
    exact value, [= ENOENT] an errno; a trailing [!] marks the entry
    blocking — replay retries [EAGAIN] up to 200000 times, each after a
    1 µs {!Uksched.Sched.sleep_ns}, so virtual time and the network stack
    make progress.

    Replay goes through a {!Personality} under any of the three call
    conventions of paper Table 1: {!run} dispatches directly (native
    function-call convention), {!to_binary} compiles the trace to a
    {!Uksyscall.Binary} whose syscall sites {!run_binary} executes either
    trapping (binary compatibility) or — after
    {!Uksyscall.Binary.rewrite} — as patched direct calls. *)

type arg =
  | I of int
  | Str of string
  | Buf of int
  | Sa of string * int
  | Slot of int
  | Ptr of int

type expect = Any | Nonneg | Ret of int | Err of Uksyscall.Fs_errno.t

type entry = { name : string; args : arg list; expect : expect; blocking : bool }

type t

val name : t -> string
val entries : t -> entry list
val length : t -> int

val to_string : t -> string
val of_string : string -> (t, string) result
(** Round-trips with {!to_string}. *)

(** {1 Replay} *)

type outcome = {
  results : int array;  (** per-entry return value (errno-coded when negative) *)
  calls : int;  (** shim dispatches, including the arena mmap and retries *)
  retries : int;
  enosys : int;
  boundary_cycles : int;  (** calls x the dispatch mode's Table-1 cost *)
  interp_cycles : int;  (** binary-interpreter cycles outside the boundary *)
}

val run : Personality.t -> t -> (outcome, string) result
(** Native-link replay: arguments are marshalled into an arena obtained
    with a real leading [mmap] syscall, then each entry dispatches
    through the personality's shim. Fails on an expectation mismatch or
    an entry still [EAGAIN] after its retries. *)

val to_binary : t -> Uksyscall.Binary.t
(** Compile: per entry a deterministic pad of ordinary instructions plus
    one [Syscall] site, terminated by [Ret]. *)

val run_binary :
  Personality.t ->
  binary:Uksyscall.Binary.t ->
  t ->
  (outcome, string) result
(** Execute the compiled binary via {!Uksyscall.Binary.execute_with},
    marshalling each site's arguments positionally from the trace. Works
    on the original (trapping) and {!Uksyscall.Binary.rewrite}n binary
    alike. *)
