(** Per-process Linux-personality state (ukcompat's "task_struct").

    One process owns:
    - a file-descriptor table mapping small integers onto vfscore files,
      uknetstack sockets (UDP, TCP listeners, TCP flows) and pre-bind
      socket placeholders;
    - a user address space: a flat RAM backing store plus a real
      {!Ukmmu.Pagetable} in [Dynamic] mode. The heap ([brk]) and [mmap]
      regions live at high virtual addresses backed by a physical page
      allocator, so every user-buffer access a syscall handler performs
      walks the page table (charging TLB hit/walk costs) and faults with
      [EFAULT] on unmapped addresses;
    - identity bits (pid, cwd).

    Syscall handlers in {!Personality} marshal raw register-style [int]
    arguments through this module: pointers are virtual addresses into
    the process address space, strings are NUL-terminated bytes there. *)

val page_size : int

val at_fdcwd : int
(** Linux's [AT_FDCWD] (-100), accepted by [openat]. *)

type file = { vfd : Ukvfs.Vfs.fd; path : string }

type sock = Unbound of [ `Stream | `Dgram ] | Bound_stream of int

type obj =
  | File of file
  | Sock of sock  (** created by [socket], not yet usable for I/O *)
  | Udp of Uknetstack.Stack.Udp_socket.t
  | Listener of Uknetstack.Stack.Tcp_socket.listener
  | Flow of Uknetstack.Stack.Tcp_socket.flow

type t

val create : clock:Uksim.Clock.t -> ?ram_bytes:int -> unit -> t
(** [ram_bytes] (default 1 MiB, rounded to pages) bounds the physical
    pages available to [mmap]/[brk]; building the page table charges the
    dynamic boot cost to [clock]. *)

val pid : int
(** 1: a unikernel runs one process. *)

val cwd : t -> string
val set_cwd : t -> string -> unit

val resolve : t -> string -> string
(** Absolute paths pass through; relative paths are joined to the cwd. *)

(** {1 User memory} *)

val read_mem : t -> addr:int -> len:int -> (bytes, Uksyscall.Fs_errno.t) result
val write_mem : t -> addr:int -> bytes -> (unit, Uksyscall.Fs_errno.t) result

val read_str : t -> addr:int -> (string, Uksyscall.Fs_errno.t) result
(** NUL-terminated string at [addr] (bounded at 4 KiB). *)

val mmap : t -> len:int -> (int, Uksyscall.Fs_errno.t) result
(** Map fresh zeroed pages; returns the new region's virtual address.
    [ENOMEM] when the physical pool is exhausted (partial maps are
    undone). *)

val munmap : t -> addr:int -> len:int -> (int, Uksyscall.Fs_errno.t) result
(** Unmap and recycle the pages covering [addr, addr+len); [addr] must be
    page-aligned. Unmapped pages in the range are skipped, as in Linux. *)

val brk : t -> int -> int
(** Linux [brk] semantics: a request at or below the current break (e.g.
    0) queries it; growing maps pages and returns the new break; on
    exhaustion the break is unchanged and the old value returns. *)

val heap_base : t -> int

val mem_digest : t -> string
(** Digest over RAM contents + break/mmap cursors — the replay-determinism
    fingerprint. *)

(** {1 File descriptors} *)

val alloc_fd : t -> obj -> int
val lookup : t -> int -> obj option
val set_obj : t -> int -> obj -> unit
(** Replace the object behind a descriptor (bind/listen transitions). *)

val close_fd : t -> int -> obj option
