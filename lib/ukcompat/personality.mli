(** The executable Linux-syscall personality (paper §4.1, "syscall shim
    layer" made real).

    [create] builds a process ({!Process}) and a {!Uksyscall.Shim.t} and
    registers real handlers for the core file syscalls (routed to
    {!Ukvfs.Vfs}), socket syscalls (routed to a {!Uknetstack.Stack}),
    memory syscalls (routed to the process's {!Ukmmu.Pagetable}) and time
    syscalls (the virtual clock) — plus the quickly-stubbed identity
    chatter every glibc startup emits. Everything registered is within
    {!Uksyscall.Appdb.unikraft_supported}, so live-shim coverage equals
    the paper's static Fig 7 analysis. Unregistered syscalls still return
    [ENOSYS] through the shim.

    Handlers are strictly non-blocking: would-block conditions surface as
    [EAGAIN] and the caller (e.g. {!Trace.run}) retries after letting
    virtual time advance. *)

type t

val create :
  clock:Uksim.Clock.t ->
  mode:Uksyscall.Shim.dispatch ->
  vfs:Ukvfs.Vfs.t ->
  ?stack:Uknetstack.Stack.t ->
  ?sched:Uksched.Sched.t ->
  ?ram_bytes:int ->
  unit ->
  t
(** Socket syscalls return [ENOTSUP] when no [stack] is given; [nanosleep]
    parks the fiber when a [sched] is given, else advances the clock
    directly. Registers a ["ukcompat.personality"] uktrace source
    (per-call cycle histogram + per-syscall cycle totals). *)

val clock : t -> Uksim.Clock.t
val shim : t -> Uksyscall.Shim.t
val proc : t -> Process.t

val call : t -> string -> int array -> (int, Uksyscall.Fs_errno.t) result
(** [call t name args]: dispatch by syscall name through the shim
    (charging the shim's dispatch cost), recording cycles into the
    personality's trace source. Raises [Invalid_argument] on unknown
    names. *)

val call_sysno : t -> int -> int array -> (int, Uksyscall.Fs_errno.t) result

val sockaddr_bytes : Uknetstack.Addr.Ipv4.t * int -> bytes
(** The 16-byte [struct sockaddr_in] encoding handlers parse — exposed so
    the trace replayer can marshal address arguments into process
    memory. *)
