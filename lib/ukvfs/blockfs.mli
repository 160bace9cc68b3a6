(** Blockfs — a content-addressed, read-only object store over a
    {!Ukblock.Blockdev}.

    The on-disk layout is a tiny superblock (sectors 0..7 hold a textual
    manifest of [name -> (lba, size, digest)]) followed by the objects,
    sector-aligned. Objects are immutable once published; the intended
    naming discipline is content addressing (the object's name {e is} its
    digest), which is what {!Ukapps.Infer} uses for model weights.

    Digests are positional page samples: for every 4 KiB page, an FNV-1a
    hash of the page's first 64 bytes is mixed with the page index and
    XOR-folded. The fold is order-independent, so {!stream} can verify
    chunks in completion order (the device finishes a short tail chunk
    before earlier full ones) without reordering.

    Two read paths, mirroring {!Shfs}'s split:

    - {!to_fs} mounts the store under vfscore. Reads go through
      [read_sync] one request at a time and pay a full per-byte copy —
      the generic path, fine for metadata and small files.
    - {!stream} is the specialized bulk path: it keeps a deep window of
      chunk-sized reads in flight on the device queue, so per-chunk host
      latency and DMA transfer overlap, and hands each completed chunk to
      the caller {e without} a counted guest copy (the device's
      completion latency already carries the transfer cost). Guest-side
      work per page is only the 64-byte digest verification. This is
      what makes cold-booting a large-model image cheaper per byte than
      a snapshot clone's eager full-footprint copy. *)

type t

val create : clock:Uksim.Clock.t -> Ukblock.Blockdev.t -> t
(** Format the device with an empty manifest (host-side population
    entry point). *)

val add_stream :
  t ->
  name:string ->
  size:int ->
  fill:(off:int -> bytes -> pos:int -> len:int -> unit) ->
  (int, Fs.errno) result
(** Publish a large object without materializing it: [fill ~off buf ~pos
    ~len] must write the object's bytes [off, off+len) into
    [buf[pos..pos+len)]. Returns the object's digest; [Eexist] on a
    duplicate name, [Enospc] when the data area is full. *)

val digest_of_stream :
  size:int -> fill:(off:int -> bytes -> pos:int -> len:int -> unit) -> int
(** Pure host-side digest of a generated stream — what {!add_stream}
    would return, without a device. Lets a publisher derive an object's
    content-address name before writing it. *)

type streamed = { bytes : int; digest : int; chunks : int }

val stream :
  t ->
  name:string ->
  ?f:(bytes -> off:int -> len:int -> unit) ->
  unit ->
  (streamed, Fs.errno) result
(** Stream an object through the device queue with 32 chunks of 512
    sectors (256 KiB) in flight, and verify its digest on the fly. [f buf ~off ~len] receives each
    completed chunk ([off] is the object offset — chunks may arrive out
    of order). Returns [Eio] on a digest mismatch against the manifest
    (bit rot, or a tampered content address). *)

val to_fs : t -> Fs.t
(** vfscore-mountable read-only view (the generic copying path). *)
