(** vfscore: mount table, file descriptors, path resolution with a dentry
    cache (paper §3, scenario 3 in Fig 4).

    This is the layer the specialized SHFS experiment (Fig 22) removes:
    every operation pays per-component path resolution, mount lookup and fd
    indirection on top of the underlying filesystem. *)

type t

val create : clock:Uksim.Clock.t -> t

val mount : t -> at:string -> Fs.t -> (unit, Fs.errno) result
(** Mount points are absolute ("/", "/data"); longest prefix wins at
    resolution. [Eexist] for duplicates. *)

type fd = int

val open_file : t -> string -> ?create:bool -> unit -> (fd, Fs.errno) result
val read : t -> fd -> len:int -> (bytes, Fs.errno) result
(** From the fd's offset, advancing it. *)

val pread : t -> fd -> off:int -> len:int -> (bytes, Fs.errno) result
val write : t -> fd -> bytes -> (int, Fs.errno) result
val pwrite : t -> fd -> off:int -> bytes -> (int, Fs.errno) result
val lseek : t -> fd -> int -> (int, Fs.errno) result
val close : t -> fd -> (unit, Fs.errno) result
val fsync : t -> fd -> (unit, Fs.errno) result
val stat : t -> string -> (Fs.stat, Fs.errno) result
val mkdir : t -> string -> (unit, Fs.errno) result
val readdir : t -> string -> (string list, Fs.errno) result

val open_fds : t -> int
val dentry_hits : t -> int
val dentry_misses : t -> int
