(* The crash-consistent store: {!Tree}'s merkle objects persisted over a
   {!Ukblock.Blockdev} as one append-only log.

   On-disk layout (sector granularity, 512 B default):

     sector 0,1        root slots A/B — one textual line each, checksummed;
                       written alternately (epoch mod 2), so the flip that
                       publishes a checkpoint is a single-sector write,
                       which the device model (and real hardware) performs
                       atomically.
     sector 2..        the log: per commit one record =
                       [header sector][payload sectors][trailer sector],
                       appended at the log head. The payload is one frame
                       per newly durable merkle object, and that frame is
                       the object's home: it is addressed by its device
                       byte address, and never copied.

   Durability protocol: a commit serializes every newly reachable object
   into one record, writes it with a single multi-sector write at the
   log head, and fsyncs — when [commit] returns [Ok], the commit survives
   any crash. Group commit writes the same record without blocking:
   COMMITs that arrive while one record is in flight share the next one,
   and each is answered once its record is durable. A checkpoint copies
   nothing: it flips the root slot to (head, last sequence number, log
   position), which bounds the next mount's replay. It is due once a
   publish takes the log [journal_sectors] past the live slot; the
   committer then writes it in the background, beside the record in
   flight, so at most one record and one slot write are outstanding.
   Recovery reads the newest valid root slot and replays records from
   its log position while the chain stays intact: header checksum valid,
   sequence number contiguous, payload checksum valid, every frame at
   its own address. The first torn or stale record ends replay —
   everything before it is exactly the set of commits whose [commit]
   call returned [Ok].

   History is a chain: a commit's one parent is the head it was made on.
   Nothing here walks it. A write reads the working tree, the head and
   the record in flight; [checkout] and [commit_info] read one commit
   per call. *)

module B = Ukblock.Blockdev
module D = Ukvfs.Digest

type hash = Tree.hash
type errno = Ukvfs.Fs.errno

exception Err of errno

let null = Tree.null

(* Guest-side compute costs (cycles); device time is charged by the
   block layer itself. *)
let node_cost = 40 (* cache-hit object resolution *)
let frame_header = 39 (* fixed-width: "o <hash16> <kind> <len8> <addr8>\n" *)

(* A frame's own byte address must fit its 8 hex digits (4 GiB);
   [format] refuses a device whose byte addresses would not. *)
let max_addr = 0xffff_ffff

(* --- the sticky ukstore source -------------------------------------------
   One group counts for every store in the process: crash matrices open
   hundreds of stores, and readers take its difference around an
   operation. *)

module C = Uktrace.Metric.Counter

type metrics = {
  group : Uktrace.Registry.group;
  commits : C.t;
  journal_records : C.t;
  journal_bytes : C.t;
  fsync_barriers : C.t;
  cache_hits : C.t;
  cache_misses : C.t;
  checkpoints : C.t;
  replays : C.t;
  replayed_records : C.t;
  tree_depth : Uktrace.Metric.Gauge.t;
}

let metrics =
  lazy
    (let group = Uktrace.Registry.group ~sticky:true ~subsystem:"ukstore" "store" in
     let c = Uktrace.Registry.counter group in
     let commits = c "commits" in
     let journal_records = c "journal_records" in
     let journal_bytes = c "journal_bytes" in
     let fsync_barriers = c "fsync_barriers" in
     let cache_hits = c "cache_hits" in
     let cache_misses = c "cache_misses" in
     let checkpoints = c "checkpoints" in
     let replays = c "replays" in
     let replayed_records = c "replayed_records" in
     let tree_depth = Uktrace.Registry.gauge group "tree_depth" in
     { group; commits; journal_records; journal_bytes; fsync_barriers; cache_hits;
       cache_misses; checkpoints; replays; replayed_records; tree_depth })

let source () = Uktrace.Registry.source (Lazy.force metrics).group

(* --- store state ----------------------------------------------------------- *)

(* Tables keyed by object hash. A structural hash is already a mixed
   word, so it indexes a table as it is. *)
module Htbl = Hashtbl.Make (struct
  type t = hash

  let equal = Int.equal
  let hash h = h
end)

type t = {
  clock : Uksim.Clock.t;
  dev : B.t;
  jcap : int; (* replay bound: log sectors past the live slot before a flip *)
  mutable cache : Tree.obj Htbl.t; (* the live trees' objects; see [sweep] *)
  mutable sweep_at : int; (* the cache size at which the next sweep runs *)
  locs : int Htbl.t; (* object -> its home, packed: see [pack] *)
  mutable wbuf : bytes; (* where records are encoded; see [build_record] *)
  mutable head : hash; (* last durable commit, null before the first *)
  mutable root : hash; (* working tree (may be ahead of head) *)
  mutable epoch : int; (* of the live root slot *)
  mutable next_seq : int;
  mutable log_head : int; (* next free lba of the log *)
  mutable slot_pos : int; (* log position the live root slot replays from *)
  m : metrics;
  mutable src : Tree.src; (* object source the trie ops run against *)
  (* At most one record and one slot write in flight, each with the
     request whose completion settles it; the COMMITs waiting for the
     next record (newest first), and groups settled but not yet answered
     (newest first). *)
  mutable flight : (B.request * record * waiter list) option;
  mutable flip : (B.request * int * int) option; (* request, its epoch, its log position *)
  mutable joined : waiter list;
  mutable settled : ((hash, errno) result * waiter list) list;
  mutable committer : (unit -> unit) option;
}

(* One encoded record, its objects' homes already assigned inside it. *)
and record = {
  ch : hash; (* its commit object *)
  objs : hash list; (* newly durable objects, parents before children *)
  lba : int;
  data : bytes; (* header, payload and trailer sectors *)
  rsec : int;
  seq : int;
}

and waiter = (hash, errno) result -> unit

let charge t c = Uksim.Clock.advance t.clock c
let sectors_of t len = (len + t.dev.B.sector_size - 1) / t.dev.B.sector_size
let head t = t.head
let content_hash t = t.root
let log_head t = t.log_head

(* --- frame codec -----------------------------------------------------------
   One frame per object: a fixed-width header line, then a textual body.
   Child refs carry (hash, byte address, len) so a cold mount can
   navigate the tree from disk; the structural hash ignores the
   locations. Addresses, keys and commit messages are hex-encoded:

     frame   "o <hash %016x> <kind b|n|c> <body len %08d> <own addr %08x>\n" body
     blob    the value's bytes
     leaf    "L <entries>\n", per entry "<hash> <addr %x> <len %d> <hex key>\n"
     branch  "T <keys> <kids>\n", per kid "<nibble> <hash> <addr %x> <len %d>\n"
     commit  "C <root> <addr %x> <len %d> <parents> <hex msg>\n",
             per parent "<hash> <addr %x> <len %d>\n"

   A body of 10^8 bytes or more has no frame: its length would not fit
   the header. Frames are written field by field, once, by a cursor
   built for this grammar: each number comes out as the digits Printf's
   %016x, %08x, %x, %08d or %d would print, and each key or message
   byte as two hex digits. *)

let hex_digit = "0123456789abcdef"

(* Byte [b]'s two hex digits, at [2 * b] and [2 * b + 1]. *)
let hex_pairs =
  String.init 512 (fun i -> hex_digit.[(i lsr (if i land 1 = 0 then 5 else 1)) land 15])

let imax (a : int) b = if a > b then a else b

(* How many digits [v] needs: base 16 reads it as an unsigned 63-bit
   word, as %x does; base 10 counts those of its magnitude (19 at
   most). *)
let hex_digits v =
  let n = ref 1 and v = ref (v lsr 4) in
  while !v <> 0 do
    incr n;
    v := !v lsr 4
  done;
  !n

let dec_digits v =
  let m = abs v (* min_int stays negative: 19 digits *) in
  if m < 0 then 19
  else if m < 10 then 1
  else if m < 100 then 2
  else if m < 1000 then 3
  else if m < 10000 then 4
  else
    let rec go n p = if m < p || n = 19 then n else go (n + 1) (p * 10) in
    go 5 100_000

(* A write position in [buf]. *)
type cursor = { mutable buf : bytes; mutable pos : int }

(* Make room for a field of [n] bytes: a buffer too short for it is
   replaced by one at least twice as long. The digit loops below make
   room once per field, then write unchecked. *)
let room c n =
  if c.pos + n > Bytes.length c.buf then begin
    let buf = Bytes.create (imax (c.pos + n) (imax 4096 (2 * Bytes.length c.buf))) in
    Bytes.blit c.buf 0 buf 0 c.pos;
    c.buf <- buf
  end

let put_char c ch =
  room c 1;
  Bytes.unsafe_set c.buf c.pos ch;
  c.pos <- c.pos + 1

let put_string c s =
  let n = String.length s in
  room c n;
  Bytes.unsafe_blit_string s 0 c.buf c.pos n;
  c.pos <- c.pos + n

(* %0<width>x: [v] as an unsigned 63-bit word, zero-padded to [width]
   digits, or longer if it needs more. No word needs more than 16. *)
let put_hex c ~width v =
  let n = if width >= 16 then width else imax width (hex_digits v) in
  room c n;
  let v = ref v in
  for i = c.pos + n - 1 downto c.pos do
    Bytes.unsafe_set c.buf i (String.unsafe_get hex_digit (!v land 15));
    v := !v lsr 4
  done;
  c.pos <- c.pos + n

(* %0<width>d: the sign, if any, counts in [width]. *)
let put_dec c ~width v =
  if v < 0 then put_char c '-';
  let d = dec_digits v in
  let n = imax (if v < 0 then width - 1 else width) d in
  room c n;
  Bytes.unsafe_fill c.buf c.pos (n - d) '0';
  let v = ref v in
  for i = c.pos + n - 1 downto c.pos + n - d do
    Bytes.unsafe_set c.buf i (Char.unsafe_chr (48 + abs (!v mod 10)));
    v := !v / 10
  done;
  c.pos <- c.pos + n

(* %016x, two digits a step. *)
let put_hash c h =
  room c 16;
  let v = ref h in
  for i = 7 downto 0 do
    let b = 2 * (!v land 255) and at = c.pos + (2 * i) in
    Bytes.unsafe_set c.buf at (String.unsafe_get hex_pairs b);
    Bytes.unsafe_set c.buf (at + 1) (String.unsafe_get hex_pairs (b + 1));
    v := !v lsr 8
  done;
  c.pos <- c.pos + 16

let put_int c v = put_dec c ~width:1 v

(* Two hex digits per byte of [s]. *)
let put_hex_bytes c s =
  let n = 2 * String.length s in
  room c n;
  for i = 0 to String.length s - 1 do
    let b = 2 * Char.code (String.unsafe_get s i) and at = c.pos + (2 * i) in
    Bytes.unsafe_set c.buf at (String.unsafe_get hex_pairs b);
    Bytes.unsafe_set c.buf (at + 1) (String.unsafe_get hex_pairs (b + 1))
  done;
  c.pos <- c.pos + n

(* An object's home, its frame's (byte address, length), packed into one
   word: the address in the low 32 bits, the length in the 31 above
   them. A frame's address fits its 8 hex digits and its body its 8
   decimal ones, so every home fits; a child ref that does not is no
   home. The null tree's home is 0. *)
let fits addr len = addr >= 0 && addr <= max_addr && len >= 0 && len < 1 lsl 31
let pack addr len = addr lor (len lsl 32)
let addr_of p = p land max_addr
let len_of p = p lsr 32

let home t h =
  if h = null then 0
  else match Htbl.find t.locs h with p -> p | exception Not_found -> raise (Err Ukvfs.Fs.Eio)

(* A child ref, [home] giving its home: "<hash> <addr %x> <len %d>". *)
let put_ref c home h =
  let p = home h in
  put_hash c h; put_char c ' '; put_hex c ~width:1 (addr_of p); put_char c ' ';
  put_int c (len_of p)

let put_body c home (o : Tree.obj) =
  match o with
  | Tree.Blob v -> put_string c v
  | Tree.Node (Tree.Leaf entries) ->
      put_string c "L "; put_int c (List.length entries); put_char c '\n';
      List.iter
        (fun (k, vh) -> put_ref c home vh; put_char c ' '; put_hex_bytes c k; put_char c '\n')
        entries
  | Tree.Node (Tree.Branch (n, kids)) ->
      put_string c "T "; put_int c n; put_char c ' '; put_int c (List.length kids);
      put_char c '\n';
      List.iter
        (fun (nb, ch) -> put_int c nb; put_char c ' '; put_ref c home ch; put_char c '\n')
        kids
  | Tree.Commit { root; parents; msg } ->
      put_string c "C "; put_ref c home root; put_char c ' '; put_int c (List.length parents);
      put_char c ' '; put_hex_bytes c msg; put_char c '\n';
      List.iter (fun p -> put_ref c home p; put_char c '\n') parents

let kind_of = function
  | Tree.Blob _ -> 'b'
  | Tree.Node _ -> 'n'
  | Tree.Commit _ -> 'c'

(* The longest body the header's %08d length field holds. *)
let max_body = 99_999_999

(* [h]'s frame at the cursor, at byte address [addr] (its own home,
   embedded so replay and cold reads can check that a frame is the one
   they asked for): the header with its body length left blank, the
   body, then that length. A longer body than [max_body] is refused with
   [Einval], a blob's before it is written. Returns the frame's
   length. *)
let put_frame c home h o ~addr =
  (match o with
  | Tree.Blob v when String.length v > max_body -> raise (Err Ukvfs.Fs.Einval)
  | Tree.Blob _ | Tree.Node _ | Tree.Commit _ -> ());
  let start = c.pos in
  put_string c "o "; put_hash c h; put_char c ' '; put_char c (kind_of o); put_char c ' ';
  room c 8;
  let blen_at = c.pos in
  c.pos <- c.pos + 8;
  put_char c ' '; put_hex c ~width:8 addr; put_char c '\n';
  let body = c.pos in
  put_body c home o;
  let stop = c.pos in
  if stop - body > max_body then raise (Err Ukvfs.Fs.Einval);
  c.pos <- blen_at;
  put_dec c ~width:8 (stop - body);
  c.pos <- stop;
  stop - start

(* One frame on its own, as a record holds it. *)
let encode_frame ~loc h o ~addr =
  let home h =
    let addr, len = loc h in
    if fits addr len then pack addr len
    else invalid_arg "Store.encode_frame: a child ref is no home"
  in
  let c = { buf = Bytes.empty; pos = 0 } in
  (try ignore (put_frame c home h o ~addr)
   with Err _ -> invalid_arg "Store.encode_frame: body too long");
  Bytes.sub_string c.buf 0 c.pos

(* A checksummed line at [at] of [buf]: the core [put] writes, then
   " <FNV of the core, %016x>\n". Root slots and record headers and
   trailers are such lines. *)
let put_line buf ~at put =
  let c = { buf; pos = at } in
  put c;
  let ck = D.fnv c.buf at (c.pos - at) in
  put_char c ' '; put_hash c ck; put_char c '\n';
  if c.buf != buf then invalid_arg "Store: a line past its buffer"

let of_hex s =
  if String.length s mod 2 <> 0 then raise (Err Ukvfs.Fs.Eio);
  try String.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (i * 2) 2)))
  with _ -> raise (Err Ukvfs.Fs.Eio)

let int_of_hex s = try int_of_string ("0x" ^ s) with _ -> raise (Err Ukvfs.Fs.Eio)
let int_of_dec s = try int_of_string s with _ -> raise (Err Ukvfs.Fs.Eio)

(* Split [s] into its first line (without '\n') and the offset just past
   it. *)
let take_line s pos =
  match String.index_from_opt s pos '\n' with
  | None -> raise (Err Ukvfs.Fs.Eio)
  | Some nl -> (String.sub s pos (nl - pos), nl + 1)

let note_loc t h addr len =
  if h <> null && len > 0 && fits addr len then Htbl.replace t.locs h (pack addr len)

(* A frame's child refs name homes on the medium, so only a frame that
   has been checked may add them. *)
let note_refs t refs = List.iter (fun (h, addr, len) -> note_loc t h addr len) refs

(* Decode one frame starting at [pos]: (hash, obj, own address, frame
   bytes, child refs as (hash, address, len)). *)
let read_frame s pos =
  if pos + frame_header > String.length s then raise (Err Ukvfs.Fs.Eio);
  let hdr = String.sub s pos frame_header in
  if String.length hdr <> frame_header || hdr.[0] <> 'o' || hdr.[frame_header - 1] <> '\n' then
    raise (Err Ukvfs.Fs.Eio);
  let h = int_of_hex (String.sub hdr 2 16) in
  let kind = hdr.[19] in
  let blen = int_of_dec (String.sub hdr 21 8) in
  let addr = int_of_hex (String.sub hdr 30 8) in
  if blen < 0 || pos + frame_header + blen > String.length s then raise (Err Ukvfs.Fs.Eio);
  let body = String.sub s (pos + frame_header) blen in
  let refs = ref [] in
  let note h addr len = refs := (h, addr, len) :: !refs in
  let obj =
    match kind with
    | 'b' -> Tree.Blob body
    | 'n' -> (
        let line, p = take_line body 0 in
        match String.split_on_char ' ' line with
        | [ "L"; n ] ->
            let n = int_of_dec n in
            let p = ref p in
            let entries = ref [] in
            for _ = 1 to n do
              let line, p' = take_line body !p in
              p := p';
              match String.split_on_char ' ' line with
              | [ vh; vaddr; vlen; hk ] ->
                  let vh = int_of_hex vh in
                  note vh (int_of_hex vaddr) (int_of_dec vlen);
                  entries := (of_hex hk, vh) :: !entries
              | _ -> raise (Err Ukvfs.Fs.Eio)
            done;
            Tree.Node (Tree.Leaf (List.rev !entries))
        | [ "T"; n; nk ] ->
            let n = int_of_dec n and nk = int_of_dec nk in
            let p = ref p in
            let kids = ref [] in
            for _ = 1 to nk do
              let line, p' = take_line body !p in
              p := p';
              match String.split_on_char ' ' line with
              | [ nb; ch; caddr; clen ] ->
                  let ch = int_of_hex ch in
                  note ch (int_of_hex caddr) (int_of_dec clen);
                  kids := (int_of_dec nb, ch) :: !kids
              | _ -> raise (Err Ukvfs.Fs.Eio)
            done;
            Tree.Node (Tree.Branch (n, List.rev !kids))
        | _ -> raise (Err Ukvfs.Fs.Eio))
    | 'c' -> (
        let line, p = take_line body 0 in
        match String.split_on_char ' ' line with
        | [ "C"; root; raddr; rlen; np; hmsg ] ->
            let root = int_of_hex root in
            note root (int_of_hex raddr) (int_of_dec rlen);
            let np = int_of_dec np in
            let p = ref p in
            let parents = ref [] in
            for _ = 1 to np do
              let line, p' = take_line body !p in
              p := p';
              match String.split_on_char ' ' line with
              | [ ph; paddr; plen ] ->
                  let ph = int_of_hex ph in
                  note ph (int_of_hex paddr) (int_of_dec plen);
                  parents := ph :: !parents
              | _ -> raise (Err Ukvfs.Fs.Eio)
            done;
            Tree.Commit { root; parents = List.rev !parents; msg = of_hex hmsg }
        | _ -> raise (Err Ukvfs.Fs.Eio))
    | _ -> raise (Err Ukvfs.Fs.Eio)
  in
  (h, obj, addr, frame_header + blen, List.rev !refs)

(* [read_frame], or None when the bytes at [pos] are not a frame. *)
let decode_frame s pos = try Some (read_frame s pos) with Err _ -> None

(* --- root slots ------------------------------------------------------------ *)

let slot_magic = "ukss2"
let jr_magic = "ukjr1"
let jc_magic = "ukjc1"

(* The slot for [epoch]: the head, the last sequence number and the log
   position replay starts from. *)
let slot_sector t ~epoch ~pos =
  let sec = Bytes.make t.dev.B.sector_size '\000' in
  put_line sec ~at:0 (fun c ->
      put_string c slot_magic; put_char c ' '; put_int c epoch; put_char c ' ';
      put_int c t.jcap; put_char c ' '; put_ref c (home t) t.head;
      put_char c ' '; put_int c (t.next_seq - 1); put_char c ' '; put_int c pos);
  sec

(* The fields of the checksummed line [put_line] wrote at the start of
   [raw]: None unless the core (everything before the line's last space)
   hashes to the trailing %016x FNV and its first field is [magic]. *)
let line_fields ~magic raw =
  match Bytes.index_opt raw '\n' with
  | None -> None
  | Some nl -> (
      let line = Bytes.sub_string raw 0 nl in
      match String.rindex_opt line ' ' with
      | None -> None
      | Some sp -> (
          let core = String.sub line 0 sp in
          match int_of_string_opt ("0x" ^ String.sub line (sp + 1) (nl - sp - 1)) with
          | Some ck when ck = D.fnv_string core -> (
              match String.split_on_char ' ' core with
              | m :: fields when m = magic -> Some fields
              | _ -> None)
          | _ -> None))

(* Parse a slot sector; None when invalid (unformatted, torn, stale
   magic). *)
let parse_slot raw =
  match line_fields ~magic:slot_magic raw with
  | Some [ epoch; jcap; head; haddr; hlen; aseq; pos ] -> (
      try
        Some
          ( int_of_string epoch,
            int_of_string jcap,
            int_of_string ("0x" ^ head),
            int_of_string ("0x" ^ haddr),
            int_of_string hlen,
            int_of_string aseq,
            int_of_string pos )
      with _ -> None)
  | _ -> None

(* --- the requests in flight -------------------------------------------------- *)

let fsync t =
  t.dev.B.flush ();
  charge t Uksim.Cost.vm_exit;
  C.incr t.m.fsync_barriers

(* One write in the background. The completion interrupt is armed while
   anything is in flight (the synchronous calls poll); a completion
   already queued when [submit] returns (a ramdisk, an injected fault)
   is taken by the next [poll_io]. *)
let submit t req =
  t.dev.B.set_completion_handler t.committer;
  t.dev.B.submit [| req |] = 1

(* The flip: the alternate root slot names the head, the last published
   sequence number and the log head. It settles in [poll_io]. *)
let start_flip t =
  let epoch = t.epoch + 1 and pos = t.log_head in
  let req = B.Write { lba = epoch mod 2; data = slot_sector t ~epoch ~pos } in
  if submit t req then t.flip <- Some (req, epoch, pos)

(* The record is on the medium: one barrier, and its commit is durable.
   A flip is due once the log has run [jcap] sectors past the live slot,
   and is started here, after a publish, never retried on its own: a
   failed flip waits for the next publish. *)
let publish t r =
  fsync t;
  t.log_head <- r.lba + r.rsec;
  t.next_seq <- r.seq + 1;
  t.head <- r.ch;
  C.incr t.m.commits;
  C.incr t.m.journal_records;
  C.add t.m.journal_bytes (r.rsec * t.dev.B.sector_size);
  Uktrace.Metric.Gauge.set t.m.tree_depth (float_of_int t.src.Tree.depth_seen);
  if t.flip = None && t.log_head - t.slot_pos >= t.jcap then start_flip t;
  r.ch

(* A record that never reached the medium gives its homes back. *)
let unassign t r = List.iter (fun h -> Htbl.remove t.locs h) r.objs

let settle t (c : B.completion) =
  match (t.flight, t.flip) with
  | Some (req, r, waiters), _ when c.B.req == req ->
      t.flight <- None;
      let outcome =
        match c.B.result with
        | Ok _ -> Ok (publish t r)
        | Error _ ->
            unassign t r;
            Error Ukvfs.Fs.Eio
      in
      t.settled <- (outcome, waiters) :: t.settled
  | _, Some (req, epoch, pos) when c.B.req == req -> (
      t.flip <- None;
      match c.B.result with
      | Ok _ ->
          fsync t;
          t.epoch <- epoch;
          t.slot_pos <- pos;
          C.incr t.m.checkpoints
      | Error _ -> ())
  | _ -> ()

(* Non-blocking: settle every completion that is in, matching each to
   its request. It drains until the queue is empty: a barrier taken
   while settling one completion can queue the other, and the
   edge-triggered interrupt would not fire for it again. *)
let rec poll_io t =
  match t.dev.B.poll_completions ~max:2 with
  | [] -> if t.flight = None && t.flip = None then t.dev.B.set_completion_handler None
  | cs ->
      List.iter (settle t) cs;
      poll_io t

(* Every synchronous device call (cache-miss read, checkpoint, sync
   commit) first waits out what is in flight, spinning virtual time as
   the device's own sync helpers do. *)
let rec await_io t =
  poll_io t;
  if t.flight <> None || t.flip <> None then begin
    charge t 500;
    await_io t
  end

(* --- object resolution ----------------------------------------------------- *)

let load_obj t h =
  match Htbl.find_opt t.cache h with
  | Some o ->
      C.incr t.m.cache_hits;
      charge t node_cost;
      o
  | None -> (
      C.incr t.m.cache_misses;
      match Htbl.find_opt t.locs h with
      | None -> raise (Err Ukvfs.Fs.Eio)
      | Some p -> (
          let addr = addr_of p and len = len_of p in
          await_io t;
          let ss = t.dev.B.sector_size in
          let off = addr mod ss in
          match t.dev.B.read_sync ~lba:(addr / ss) ~sectors:(sectors_of t (off + len)) with
          | Error _ -> raise (Err Ukvfs.Fs.Eio)
          | Ok raw ->
              let s = Bytes.sub_string raw off len in
              charge t (Uksim.Cost.memcpy len + Uksim.Cost.checksum len);
              (* Structural-hash verification: a frame that does not hash
                 to its own address, or sits elsewhere than it says, is a
                 torn or misdirected read. *)
              match decode_frame s 0 with
              | Some (h', obj, addr', _, refs)
                when h' = h && addr' = addr && Tree.hash_of_obj obj = h ->
                  note_refs t refs;
                  Htbl.replace t.cache h obj;
                  obj
              | Some _ | None -> raise (Err Ukvfs.Fs.Eio)))

let put_obj t o =
  let h = Tree.hash_of_obj o in
  charge t node_cost;
  if not (Htbl.mem t.cache h) then Htbl.replace t.cache h o;
  h

let mk_src t = { Tree.get = (fun h -> load_obj t h); put = (fun o -> put_obj t o); depth_seen = 0 }

(* --- the cache sweep ------------------------------------------------------- *)

(* The fewest cached objects a sweep runs at. *)
let sweep_floor = 1024

let cached t = Htbl.length t.cache
let sweep_point t = t.sweep_at

(* The cache keeps what the live trees reach: the working root, the head
   commit and the commit of the record in flight, each with its tree.
   Commit parents are not followed, so history read back, and superseded
   paths that never got a home, go at the next sweep; a later read of
   history costs a device read from its home. The sweep runs once the
   cache has doubled since the last one (and holds [sweep_floor]
   objects), so it costs O(1) per object amortized, and it charges no
   virtual time, as the cache's own bookkeeping charges none.

   It runs only between operations: at the end of [set] and [del], and
   after [commit] and [reap]. Never inside [publish]: a cache miss
   partway through [Tree.set] reaches [publish] through [await_io] while
   the SET's new blob is not yet referenced. *)
let collect t =
  let kept = Htbl.create (Htbl.length t.cache / 2) in
  let rec keep h =
    if h <> null && not (Htbl.mem kept h) then
      match Htbl.find_opt t.cache h with
      | None -> ()
      | Some o -> (
          Htbl.add kept h o;
          match o with
          | Tree.Blob _ -> ()
          | Tree.Node (Tree.Leaf entries) -> List.iter (fun (_, vh) -> keep vh) entries
          | Tree.Node (Tree.Branch (_, kids)) -> List.iter (fun (_, ch) -> keep ch) kids
          | Tree.Commit { root; _ } -> keep root)
  in
  keep t.root;
  keep t.head;
  Option.iter (fun (_, r, _) -> keep r.ch) t.flight;
  t.cache <- kept;
  t.sweep_at <- max sweep_floor (2 * Htbl.length kept)

let sweep t = if Htbl.length t.cache >= t.sweep_at then collect t

(* --- construction ---------------------------------------------------------- *)

let default_journal_sectors = 256

let mk ~clock dev ~jcap =
  let t =
    { clock; dev; jcap; cache = Htbl.create 256; sweep_at = sweep_floor;
      locs = Htbl.create 256; wbuf = Bytes.empty;
      head = null; root = null; epoch = 0; next_seq = 1;
      log_head = 2; slot_pos = 2; m = Lazy.force metrics;
      src = { Tree.get = (fun _ -> assert false); put = (fun _ -> assert false); depth_seen = 0 };
      flight = None; flip = None; joined = []; settled = []; committer = None }
  in
  t.src <- mk_src t;
  t

let guard f = try Ok (f ()) with Err e -> Error e

let format ~clock ?(journal_sectors = default_journal_sectors) dev =
  guard (fun () ->
      if
        journal_sectors < 3
        || 2 + journal_sectors >= dev.B.capacity_sectors
        || (dev.B.capacity_sectors * dev.B.sector_size) - 1 > max_addr
      then raise (Err Ukvfs.Fs.Einval);
      let t = mk ~clock dev ~jcap:journal_sectors in
      (match dev.B.write_sync ~lba:0 (slot_sector t ~epoch:0 ~pos:t.log_head) with
      | Ok () -> ()
      | Error _ -> raise (Err Ukvfs.Fs.Eio));
      fsync t;
      t)

(* --- commit ---------------------------------------------------------------- *)

let commit_of t h =
  match load_obj t h with
  | Tree.Commit c -> c
  | Tree.Blob _ | Tree.Node _ -> raise (Err Ukvfs.Fs.Einval)

let dirty t =
  if t.head = null then t.root <> null
  else (commit_of t t.head).Tree.root <> t.root

(* Encode, at the log head, the record that commits the working root with
   the head as its parent. One post-order walk loads each object that has
   no home yet and, as it returns, writes the object's frame into the
   store's buffer and makes the frame's byte address its home, so every
   child ref resolves. A record is built only while none is in flight, so
   every object in [locs] then has its home on the medium, and the walk
   stops there: after a mount too, where most homes are known from child
   refs alone. The payload is then copied once, between the header and
   trailer sectors. The homes are taken back if a frame is refused or the
   record does not fit the device, and by [unassign] if its write fails.
   The buffer is kept for the next record while it is at most half the
   replay bound: a record is most often a small part of that bound, and
   one past half of it (a bulk load) leaves no buffer of its size
   behind. *)
let build_record t ~msg =
  let ss = t.dev.B.sector_size in
  let parents = if t.head = null then [] else [ t.head ] in
  let ch = put_obj t (Tree.Commit { root = t.root; parents; msg }) in
  let lba = t.log_head in
  let base = (lba + 1) * ss in
  let c = { buf = t.wbuf; pos = 0 } in
  let home = home t in
  let objs = ref [] in
  let rec walk h =
    if h <> null && not (Htbl.mem t.locs h) then begin
      let o = load_obj t h in
      (match o with
      | Tree.Blob _ -> ()
      | Tree.Node (Tree.Leaf entries) -> List.iter (fun (_, vh) -> walk vh) entries
      | Tree.Node (Tree.Branch (_, kids)) -> List.iter (fun (_, ch) -> walk ch) kids
      | Tree.Commit { root; parents; _ } ->
          walk root;
          List.iter walk parents);
      let addr = base + c.pos in
      Htbl.replace t.locs h (pack addr (put_frame c home h o ~addr));
      objs := h :: !objs
    end
  in
  let rollback () = List.iter (fun h -> Htbl.remove t.locs h) !objs in
  let walked = try Ok (walk ch) with e -> Error e in
  t.wbuf <- (if 2 * Bytes.length c.buf <= t.jcap * ss then c.buf else Bytes.empty);
  (match walked with Ok () -> () | Error e -> rollback (); raise e);
  let plen = c.pos in
  let psec = max 1 (sectors_of t plen) in
  let rsec = 2 + psec in
  if lba + rsec > t.dev.B.capacity_sectors then begin
    rollback ();
    raise (Err Ukvfs.Fs.Enospc)
  end;
  let seq = t.next_seq in
  let data = Bytes.make (rsec * ss) '\000' in
  Bytes.blit c.buf 0 data ss plen;
  put_line data ~at:0 (fun c ->
      put_string c jr_magic; put_char c ' '; put_int c seq; put_char c ' '; put_int c psec;
      put_char c ' '; put_hash c ch);
  put_line data ~at:((1 + psec) * ss) (fun c ->
      put_string c jc_magic; put_char c ' '; put_int c seq; put_char c ' '; put_int c plen;
      put_char c ' '; put_hash c (D.bytes_hash data ~pos:ss ~len:plen));
  charge t (Uksim.Cost.memcpy (rsec * ss) + Uksim.Cost.checksum plen);
  { ch; objs = !objs; lba; data; rsec; seq }

(* The synchronous commit: write the record, publish it, and wait out
   the flip the publish may have started. *)
let commit_with t ~msg =
  let r = build_record t ~msg in
  match t.dev.B.write_sync ~lba:r.lba r.data with
  | Ok () ->
      let h = publish t r in
      await_io t;
      h
  | Error _ ->
      unassign t r;
      raise (Err Ukvfs.Fs.Eio)

(* --- checkpoint ------------------------------------------------------------ *)

(* Flip the root slot to the log head and wait for it: the next mount
   replays nothing written before this call. *)
let checkpoint t =
  guard (fun () ->
      await_io t;
      if t.log_head <> t.slot_pos then begin
        start_flip t;
        await_io t;
        if t.slot_pos <> t.log_head then raise (Err Ukvfs.Fs.Eio)
      end)

(* --- recovery -------------------------------------------------------------- *)

let read_sectors t ~lba ~sectors =
  match t.dev.B.read_sync ~lba ~sectors with
  | Ok raw -> raw
  | Error _ -> raise (Err Ukvfs.Fs.Eio)

(* Parse a record header sector: (seq, payload sectors, commit hash). *)
let parse_jheader raw =
  match line_fields ~magic:jr_magic raw with
  | Some [ seq; psec; ch ] -> (
      try Some (int_of_string seq, int_of_string psec, int_of_string ("0x" ^ ch))
      with _ -> None)
  | _ -> None

(* Parse a record trailer sector: (seq, payload bytes, payload hash). *)
let parse_jtrailer raw =
  match line_fields ~magic:jc_magic raw with
  | Some [ seq; plen; pck ] -> (
      try Some (int_of_string seq, int_of_string plen, int_of_string ("0x" ^ pck))
      with _ -> None)
  | _ -> None

(* Replay the record at [lba]; returns the lba past it, or None when the
   chain breaks (torn, stale, out-of-sequence, a frame not at its own
   address). *)
let replay_record t ~lba ~expect_seq =
  let ss = t.dev.B.sector_size and cap = t.dev.B.capacity_sectors in
  if lba + 3 > cap then None
  else
    match parse_jheader (read_sectors t ~lba ~sectors:1) with
    | None -> None
    | Some (seq, psec, chash) ->
        if seq <> expect_seq || psec < 1 || lba + 2 + psec > cap then None
        else
          let payload_raw = read_sectors t ~lba:(lba + 1) ~sectors:psec in
          (match parse_jtrailer (read_sectors t ~lba:(lba + 1 + psec) ~sectors:1) with
          | None -> None
          | Some (tseq, plen, pck) ->
              if tseq <> seq || plen < 0 || plen > psec * ss then None
              else
                let payload = Bytes.sub_string payload_raw 0 plen in
                charge t (Uksim.Cost.checksum plen);
                if D.string_hash payload <> pck then None
                else begin
                  (* Checksums hold: decode and check every frame, then
                     apply the record: its child refs, then its homes. *)
                  try
                    let base = (lba + 1) * ss in
                    let pos = ref 0 in
                    let frames = ref [] in
                    while !pos < plen do
                      match decode_frame payload !pos with
                      | Some ((h, obj, addr, flen, _) as frame)
                        when addr = base + !pos && Tree.hash_of_obj obj = h ->
                          frames := frame :: !frames;
                          pos := !pos + flen
                      | Some _ | None -> raise (Err Ukvfs.Fs.Eio)
                    done;
                    let frames = List.rev !frames in
                    List.iter (fun (_, _, _, _, refs) -> note_refs t refs) frames;
                    List.iter
                      (fun (h, obj, addr, flen, _) ->
                        Htbl.replace t.cache h obj;
                        note_loc t h addr flen)
                      frames;
                    t.head <- chash;
                    C.incr t.m.replayed_records;
                    Some (lba + 2 + psec)
                  with Err _ -> None
                end)

let open_ ~clock dev =
  guard (fun () ->
      let best = ref None in
      for lba = 0 to 1 do
        match dev.B.read_sync ~lba ~sectors:1 with
        | Error _ -> ()
        | Ok raw -> (
            match parse_slot raw with
            | Some ((epoch, _, _, _, _, _, pos) as s) when pos >= 2 && pos <= dev.B.capacity_sectors
              -> (
                match !best with
                | Some (e', _, _, _, _, _, _) when e' >= epoch -> ()
                | _ -> best := Some s)
            | Some _ | None -> ())
      done;
      match !best with
      | None -> raise (Err Ukvfs.Fs.Einval)
      | Some (epoch, jcap, hd, haddr, hlen, aseq, pos) ->
          let t = mk ~clock dev ~jcap in
          t.epoch <- epoch;
          t.next_seq <- aseq + 1;
          t.slot_pos <- pos;
          t.log_head <- pos;
          note_loc t hd haddr hlen;
          t.head <- hd;
          (* Chain-replay the log from the slot's position. *)
          let continue = ref true in
          while !continue do
            match replay_record t ~lba:t.log_head ~expect_seq:t.next_seq with
            | Some lba' ->
                t.next_seq <- t.next_seq + 1;
                t.log_head <- lba'
            | None -> continue := false
          done;
          t.root <- (if t.head = null then null else (commit_of t t.head).Tree.root);
          C.incr t.m.replays;
          t)

(* --- KV operations --------------------------------------------------------- *)

let set t k v =
  guard (fun () ->
      charge t (Uksim.Cost.checksum (String.length v));
      let vh = put_obj t (Tree.Blob v) in
      t.root <- Tree.set t.src t.root k vh;
      sweep t)

let get t k =
  guard (fun () ->
      match Tree.find t.src t.root k with
      | None -> None
      | Some vh -> (
          match load_obj t vh with
          | Tree.Blob v -> Some v
          | Tree.Node _ | Tree.Commit _ -> raise (Err Ukvfs.Fs.Eio)))

let del t k =
  guard (fun () ->
      let r' = Tree.remove t.src t.root k in
      let changed = r' <> t.root in
      t.root <- r';
      sweep t;
      changed)

let to_list t =
  guard (fun () ->
      List.map
        (fun (k, vh) ->
          match load_obj t vh with
          | Tree.Blob v -> (k, v)
          | Tree.Node _ | Tree.Commit _ -> raise (Err Ukvfs.Fs.Eio))
        (Tree.to_list t.src t.root))

let commit t ?(msg = "") () =
  guard (fun () ->
      await_io t;
      let h =
        if t.head <> null && not (dirty t) then t.head
        else commit_with t ~msg
      in
      sweep t;
      h)

(* --- group commit -----------------------------------------------------------

   The non-blocking commit. A COMMIT joins the next group. While no
   record is in flight that group starts at once: its record is built
   from the working root and submitted. COMMITs that arrive meanwhile
   join the group after it, whose record is built from the working root
   when this one completes. No window, delay or batch size: the device's
   own latency forms the groups, and each store keeps at most one record
   and one slot write outstanding. [reap] does the building, publishing
   and answering; it runs in the committer, never in the completion
   interrupt. *)

(* Start the joined group: a clean store answers it with the head and a
   failed build with the error; otherwise its record goes to the device. *)
let start_group t =
  let waiters = List.rev t.joined in
  t.joined <- [];
  let settle outcome = t.settled <- (outcome, waiters) :: t.settled in
  match
    guard (fun () ->
        if t.head <> null && not (dirty t) then None
        else Some (build_record t ~msg:""))
  with
  | Ok None -> settle (Ok t.head)
  | Error e -> settle (Error e)
  | Ok (Some r) ->
      let req = B.Write { lba = r.lba; data = r.data } in
      if submit t req then t.flight <- Some (req, r, waiters)
      else begin
        unassign t r;
        settle (Error Ukvfs.Fs.Eio)
      end

(* Join the next group; [k] gets its outcome from [reap]. With no record
   in flight the group can start now, so the committer is woken. *)
let commit_group t k =
  t.joined <- k :: t.joined;
  if t.flight = None then Option.iter (fun wake -> wake ()) t.committer

(* Settle whatever has completed, answer every settled group, and start
   the next group while no record is in flight. Non-blocking; true when
   it answered or started a group. *)
let reap t =
  let progress = ref false in
  let rec go () =
    poll_io t;
    if t.settled <> [] then begin
      let groups = List.rev t.settled in
      t.settled <- [];
      List.iter (fun (outcome, waiters) -> List.iter (fun k -> k outcome) waiters) groups;
      progress := true;
      go ()
    end
    else if t.flight = None && t.joined <> [] then begin
      start_group t;
      progress := true;
      go ()
    end
  in
  go ();
  sweep t;
  !progress

(* [wake] runs the committer (the thread that calls [reap]): from
   [commit_group], and as the device's completion interrupt while a
   record or a flip is in flight. Without one, callers drive [reap]
   themselves. *)
let set_committer t wake = t.committer <- wake

let checkout t h =
  guard (fun () ->
      await_io t;
      if h = null then begin
        t.head <- null;
        t.root <- null
      end
      else begin
        let c = commit_of t h in
        t.head <- h;
        t.root <- c.Tree.root
      end)

let commit_info t h = guard (fun () -> commit_of t h)

(* Drop every cached object whose home is on the medium — the
   cold-cache lever for recovery and hit-rate experiments — and what no
   live tree reaches. Once nothing is in flight, the objects with a home
   are those in [locs]. *)
let drop_caches t =
  await_io t;
  Htbl.filter_map_inplace (fun h o -> if Htbl.mem t.locs h then None else Some o) t.cache;
  collect t
