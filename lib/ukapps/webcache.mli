(** MiniCache-style web cache (paper §6.3, Fig 22).

    A content cache whose hot path is open()+read() of small objects. Two
    builds:
    - {!Vfs_backed}: objects served through vfscore (fd allocation, mount
      resolution, path walk) over any mounted filesystem;
    - {!Shfs_backed}: vfscore removed — names hash straight into SHFS.

    {!measure_open} reproduces the paper's measurement: the mean virtual
    time of one open (+close) out of a loop of 1000 requests, for both
    present and absent files. *)

type backend =
  | Vfs_backed of Ukvfs.Vfs.t * string  (** vfs + directory prefix, e.g. "/" *)
  | Shfs_backed of Ukvfs.Shfs.t

type t

val create : clock:Uksim.Clock.t -> backend -> t

val populate : t -> n_files:int -> ?size:int -> unit -> (unit, string) result
(** Create [n_files] objects named "f<i>.html" of [size] bytes (default
    4096). For VFS backends the files are created through the mounted
    filesystem; SHFS is populated directly. *)

val fetch : t -> string -> bytes option
(** Full open/read/close of an object. *)

type open_latency = { hit_ns : float; miss_ns : float }

val measure_open : t -> open_latency
(** Mean open() latency over 1000 requests, for an existing file and for
    a missing one (Fig 22's two cases). *)
