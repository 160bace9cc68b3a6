(** SHFS — the specialized hash filesystem ported from MiniCache
    (paper §6.3, Fig 22).

    A flat, read-mostly object store: file names hash directly into a
    bucket table, so open() is a single hash + probe instead of vfscore's
    fd allocation and per-component path walk — the 5-7x open latency
    reduction of Fig 22. Exposed both as a direct API (the specialized
    fast path) and as an {!Fs.t} (for mounting under vfscore, the
    non-specialized comparison point). *)

type t

val create : clock:Uksim.Clock.t -> t
(** A 1024-bucket hash table. *)

val add : t -> name:string -> bytes -> unit
(** Insert or replace an object (populating the cache image). *)

type handle

val open_direct : t -> string -> (handle, Fs.errno) result
(** The specialized path: hash, probe, done. [Enoent] on miss. *)

val read_direct : t -> handle -> off:int -> len:int -> (bytes, Fs.errno) result
val size_direct : t -> handle -> int
val close_direct : t -> handle -> unit

val entries : t -> int
val to_fs : t -> Fs.t
(** vfscore-mountable view (read-only: writes return [Enosys]). *)
