(** The crash-consistent store: {!Tree}'s merkle objects persisted over a
    {!Ukblock.Blockdev} as one append-only log.

    Sectors 0 and 1 hold the two root slots, written alternately. From
    sector 2 on, the log holds one record per commit: a header sector,
    payload sectors with one frame per newly durable object (that frame
    is the object's home, addressed by its device byte address), and a
    trailer sector. When {!commit} returns [Ok], the commit survives any
    crash; a mount replays records from the live root slot's log
    position while the chain stays intact.

    The object cache holds the live trees: what the working root, the
    head commit and the record in flight reach, commit parents not
    followed. A sweep drops the rest once the cache has doubled since the
    last one (and holds at least 1,024 objects); it runs at the end of
    {!set} and {!del} and after {!commit} and {!reap}, and charges no
    virtual time. History is read back from its home on the medium when
    asked for, one device read per object. *)

type hash = Tree.hash
type errno = Ukvfs.Fs.errno
type t

val null : hash
(** The empty tree, and the head of a store with no commit. *)

val source : unit -> Uktrace.Source.t
(** The process-wide ["ukstore.store"] counters (commits, journal
    records and bytes, fsync barriers, cache hits and misses,
    checkpoints, replays, replayed records) and the [tree_depth] gauge.
    Sticky: read their difference around an operation. *)

(** {1 Mounting} *)

val format :
  clock:Uksim.Clock.t -> ?journal_sectors:int -> Ukblock.Blockdev.t -> (t, errno) result
(** An empty store on the device. A publish that takes the log
    [journal_sectors] (default 256, at least 3) past the live root slot
    starts a checkpoint. [Einval] for a device too small for that, or
    whose byte addresses exceed {!max_addr}. *)

val open_ : clock:Uksim.Clock.t -> Ukblock.Blockdev.t -> (t, errno) result
(** Mount: the newest valid root slot, then every intact record after
    it. [Einval] when neither slot is valid. *)

val checkpoint : t -> (unit, errno) result
(** Flip the root slot to the log head and wait for it: the next mount
    replays nothing written before this call. *)

val drop_caches : t -> unit
(** After waiting out the writes in flight, drop every cached object
    whose home is on the medium, and what no live tree reaches: what is
    left is the working tree's objects not yet committed. Like a sweep,
    it sets the next sweep point at twice what it kept. *)

val cached : t -> int
(** The objects in the cache. *)

val sweep_point : t -> int
(** The cache size at which the next sweep runs. *)

(** {1 The working tree} *)

val set : t -> string -> string -> (unit, errno) result
val get : t -> string -> (string option, errno) result

val del : t -> string -> (bool, errno) result
(** [Ok true] when the key was present. *)

val to_list : t -> ((string * string) list, errno) result
(** Every binding, sorted by key. *)

val content_hash : t -> hash
(** The working tree's root hash: equal for equal key sets. *)

(** {1 History} *)

val head : t -> hash
(** The last durable commit, {!null} before the first. *)

val commit : t -> ?msg:string -> unit -> (hash, errno) result
(** Write one record holding every object reachable from the new commit
    that has no home on the medium yet, and fsync. The new commit's one
    parent is the head (it has none before the first commit). A clean
    working tree returns the head. [Einval], writing nothing, when an
    object's frame body would be 10^8 bytes or more (a value that long,
    or a key or message whose hex encoding is), since its length would
    not fit the frame header; [Enospc] when the record does not fit the
    device. *)

val checkout : t -> hash -> (unit, errno) result
(** Make a commit the head and its tree the working tree: the next
    commit's parent is that commit. *)

val commit_info : t -> hash -> (Tree.commit, errno) result
(** One commit object: its root, its parents and its message. *)

(** {1 Group commit} *)

val commit_group : t -> ((hash, errno) result -> unit) -> unit
(** Join the next group commit; the callback gets its outcome from
    {!reap}. At most one record and one root-slot write are in flight. *)

val reap : t -> bool
(** Settle what has completed, answer every settled group and start the
    next one while no record is in flight. Non-blocking; true when it
    answered or started a group. *)

val set_committer : t -> (unit -> unit) option -> unit
(** The wake-up of the thread that calls {!reap}: run on
    {!commit_group} and as the device's completion interrupt. Without
    one, callers drive {!reap} themselves. *)

(** {1 The on-disk format} *)

val log_head : t -> int
(** The sector the next record starts at. *)

val max_addr : int
(** The largest byte address a frame's 8 hex digits can name. *)

val frame_header : int
(** The length of a frame's fixed-width header line. *)

val slot_magic : string
val jr_magic : string
val jc_magic : string
(** The first word of a root slot, a record header and a record
    trailer. *)

val encode_frame : loc:(hash -> int * int) -> hash -> Tree.obj -> addr:int -> string
(** One object's frame, as a record holds it at byte address [addr];
    [loc] gives each child ref's (byte address, frame length). Raises
    [Invalid_argument] when [loc] gives an address outside
    [0, {!max_addr}] or a length outside [0, 2^31), or when the body
    would be 10^8 bytes or more. *)

val decode_frame :
  string -> int -> (hash * Tree.obj * int * int * (hash * int * int) list) option
(** The frame at a position: (hash, object, own byte address, frame
    length, child refs as (hash, byte address, frame length)), or [None]
    when the bytes there are not one. *)

val parse_slot : bytes -> (int * int * int * int * int * int * int) option
(** A root-slot sector: (epoch, journal sectors, head, head's byte
    address, head's frame length, last sequence number, log position),
    or [None] when unformatted, torn or stale. *)

val parse_jheader : bytes -> (int * int * hash) option
(** A record header: (sequence number, payload sectors, commit hash). *)

val parse_jtrailer : bytes -> (int * int * int) option
(** A record trailer: (sequence number, payload length, payload
    checksum). *)
