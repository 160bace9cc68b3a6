(** Binary compatibility and binary rewriting (paper §4.1: "for cases
    where the source code is not available, Unikraft also supports binary
    compatibility and binary rewriting as done in HermiTux").

    A "binary" is a word-encoded instruction stream (the encoding shared
    with ukdebug's disassembler plug-in: opcode in the top byte, operands
    below). Its [syscall] instructions execute one of two ways:

    - unmodified: each [syscall] traps and is translated at run time
      (OSv/HermiTux-style binary compatibility, 84 cycles per call —
      Table 1);
    - after {!rewrite}: the loader scans the text once and patches every
      [syscall] into a direct call to the shim handler (HermiTux's binary
      rewriting), after which each costs a plain function call. *)

type insn =
  | Nop
  | Add of int * int  (** register indices *)
  | Cmp of int * int
  | Mov of int * int
  | Call of int
  | Syscall of int  (** syscall number *)
  | Ret

val encode : insn -> int
val decode : int -> insn option

type t
(** A loaded binary (instruction words + patch table). *)

val assemble : insn list -> t
val syscall_sites : t -> int list
(** Instruction indices holding [Syscall]s (or rewritten calls). *)

val disassemble_with : Ukdebug.Debug.t -> t -> (string list, string) result
(** Render through a registered ukdebug disassembler plug-in. *)

val rewrite : t -> t
(** The binary-rewriting pass: a new binary with every [Syscall n]
    patched into [Call]-to-shim; the original is untouched. *)

val rewritten : t -> bool

type run_stats = {
  instructions : int;
  syscalls : int;
  cycles : int;
  enosys : int;  (** syscalls the shim had to stub *)
}

val execute : clock:Uksim.Clock.t -> shim:Shim.t -> t -> run_stats
(** Run the binary to its final [Ret]: ordinary instructions cost one
    cycle; [Syscall] dispatches through [shim] at the binary-compat trap
    cost; [Call]s produced by {!rewrite} dispatch at function-call cost.
    Raises [Invalid_argument] on undecodable words. *)

val execute_with :
  clock:Uksim.Clock.t ->
  dispatch:(trap:bool -> sysno:int -> (int, Fs_errno.t) result) ->
  t ->
  run_stats
(** Generic executor behind {!execute}: the caller owns syscall dispatch
    (cost charging, argument marshalling, retries). [trap] is true at an
    unrewritten [Syscall] site, false at a {!rewrite}-patched call site.
    Ordinary instructions still cost one cycle; [enosys] counts
    dispatches returning [Error Enosys]. ukcompat's trace replayer uses
    this to run recorded application traces through the binary-compat and
    binary-rewritten call conventions. *)
