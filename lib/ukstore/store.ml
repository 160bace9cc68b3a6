(* The crash-consistent store: {!Tree}'s merkle objects persisted over a
   {!Ukblock.Blockdev} behind a write-ahead journal.

   On-disk layout (sector granularity, 512 B default):

     sector 0,1        root slots A/B — one textual line each, checksummed;
                       written alternately (epoch mod 2), so the flip that
                       publishes a checkpoint is a single-sector write,
                       which the device model (and real hardware) performs
                       atomically.
     sector 2..2+J-1   journal ring: per commit one record =
                       [header sector][payload sectors][trailer sector].
     sector 2+J..      data area: append-only object frames, one per
                       merkle object, sector-aligned.

   Durability protocol: a commit serializes every newly reachable object
   into one journal record, writes it with a single multi-sector write,
   and fsyncs — when [commit] returns [Ok], the commit survives any
   crash. A checkpoint later copies journaled objects to their
   pre-assigned data-area frames, fsyncs, flips the root slot, and
   fsyncs again; the journal ring then restarts from zero. Recovery
   reads the newest valid root slot and replays journal records while
   the chain stays intact: header checksum valid, sequence number
   contiguous, payload checksum valid. The first torn or stale record
   ends replay — everything before it is exactly the set of commits
   whose [commit] call returned [Ok]. *)

module B = Ukblock.Blockdev
module D = Ukvfs.Digest

type hash = Tree.hash
type errno = Ukvfs.Fs.errno

exception Err of errno

let null = Tree.null

(* Guest-side compute costs (cycles); device time is charged by the
   block layer itself. *)
let node_cost = 40 (* cache-hit object resolution *)
let frame_header = 39 (* fixed-width: "o <hash16> <kind> <len8> <lba8>\n" *)

type stats = {
  commits : int;
  merges : int;
  conflicts : int;
  checkpoints : int;
  journal_records : int;
  journal_bytes : int;
  fsync_barriers : int;
  cache_hits : int;
  cache_misses : int;
  replayed_records : int;
}

let zero_stats =
  { commits = 0; merges = 0; conflicts = 0; checkpoints = 0; journal_records = 0;
    journal_bytes = 0; fsync_barriers = 0; cache_hits = 0; cache_misses = 0;
    replayed_records = 0 }

(* --- the sticky ukstore source ------------------------------------------- *)

type gstats = {
  mutable g_commits : int;
  mutable g_journal_records : int;
  mutable g_journal_bytes : int;
  mutable g_fsync_barriers : int;
  mutable g_cache_hits : int;
  mutable g_cache_misses : int;
  mutable g_checkpoints : int;
  mutable g_merges : int;
  mutable g_conflicts : int;
  mutable g_replays : int;
  mutable g_replayed_records : int;
  mutable g_tree_depth : float;
}

let g =
  { g_commits = 0; g_journal_records = 0; g_journal_bytes = 0; g_fsync_barriers = 0;
    g_cache_hits = 0; g_cache_misses = 0; g_checkpoints = 0; g_merges = 0;
    g_conflicts = 0; g_replays = 0; g_replayed_records = 0; g_tree_depth = 0.0 }

let source =
  lazy
    (Uktrace.Registry.register ~sticky:true
       (Uktrace.Source.make ~subsystem:"ukstore" ~name:"store"
          ~reset:(fun () ->
            g.g_commits <- 0;
            g.g_journal_records <- 0;
            g.g_journal_bytes <- 0;
            g.g_fsync_barriers <- 0;
            g.g_cache_hits <- 0;
            g.g_cache_misses <- 0;
            g.g_checkpoints <- 0;
            g.g_merges <- 0;
            g.g_conflicts <- 0;
            g.g_replays <- 0;
            g.g_replayed_records <- 0;
            g.g_tree_depth <- 0.0)
          (fun () ->
            [
              ("commits", Uktrace.Metric.Count g.g_commits);
              ("journal_records", Uktrace.Metric.Count g.g_journal_records);
              ("journal_bytes", Uktrace.Metric.Count g.g_journal_bytes);
              ("fsync_barriers", Uktrace.Metric.Count g.g_fsync_barriers);
              ("cache_hits", Uktrace.Metric.Count g.g_cache_hits);
              ("cache_misses", Uktrace.Metric.Count g.g_cache_misses);
              ("checkpoints", Uktrace.Metric.Count g.g_checkpoints);
              ("merges", Uktrace.Metric.Count g.g_merges);
              ("conflicts", Uktrace.Metric.Count g.g_conflicts);
              ("replays", Uktrace.Metric.Count g.g_replays);
              ("replayed_records", Uktrace.Metric.Count g.g_replayed_records);
              ("tree_depth", Uktrace.Metric.Level g.g_tree_depth);
            ])))

(* --- store state ----------------------------------------------------------- *)

type t = {
  clock : Uksim.Clock.t;
  dev : B.t;
  jstart : int;
  jcap : int; (* journal ring, sectors *)
  cache : (hash, Tree.obj) Hashtbl.t;
  locs : (hash, int * int) Hashtbl.t; (* object -> (lba, frame bytes) *)
  durable : (hash, unit) Hashtbl.t; (* journaled or checkpointed *)
  mutable unckpt : hash list; (* journal-only objects, oldest first *)
  mutable head : hash; (* last durable commit, null before the first *)
  mutable root : hash; (* working tree (may be ahead of head) *)
  mutable epoch : int;
  mutable next_seq : int;
  mutable applied_seq : int; (* folded into the current root slot *)
  mutable jsector : int; (* next free journal sector, ring-relative *)
  mutable data_head : int; (* next free absolute data-area lba *)
  mutable st : stats;
  mutable src : Tree.src; (* object source the trie ops run against *)
}

let charge t c = Uksim.Clock.advance t.clock c
let sectors_of t len = (len + t.dev.B.sector_size - 1) / t.dev.B.sector_size
let stats t = t.st
let head t = t.head
let content_hash t = t.root
let tree_depth t = t.src.Tree.depth_seen

(* --- frame codec -----------------------------------------------------------
   One frame per object, identical bytes in the journal payload and the
   data area: a fixed-width header line, then a textual body. Child refs
   carry (hash, lba, len) so a cold mount can navigate the tree from
   disk; the structural hash ignores the locations. Keys and commit
   messages are hex-encoded to survive the line format. *)

let to_hex s =
  let b = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  if String.length s mod 2 <> 0 then raise (Err Ukvfs.Fs.Eio);
  try String.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (i * 2) 2)))
  with _ -> raise (Err Ukvfs.Fs.Eio)

let loc_of t h =
  if h = null then (0, 0)
  else match Hashtbl.find_opt t.locs h with
    | Some l -> l
    | None -> raise (Err Ukvfs.Fs.Eio)

let encode_body t (o : Tree.obj) =
  let b = Buffer.create 128 in
  (match o with
  | Tree.Blob v -> Buffer.add_string b v
  | Tree.Node (Tree.Leaf entries) ->
      Buffer.add_string b (Printf.sprintf "L %d\n" (List.length entries));
      List.iter
        (fun (k, vh) ->
          let lba, len = loc_of t vh in
          Buffer.add_string b (Printf.sprintf "%016x %d %d %s\n" vh lba len (to_hex k)))
        entries
  | Tree.Node (Tree.Branch (n, kids)) ->
      Buffer.add_string b (Printf.sprintf "T %d %d\n" n (List.length kids));
      List.iter
        (fun (nb, ch) ->
          let lba, len = loc_of t ch in
          Buffer.add_string b (Printf.sprintf "%d %016x %d %d\n" nb ch lba len))
        kids
  | Tree.Commit { root; parents; msg } ->
      let rlba, rlen = loc_of t root in
      Buffer.add_string b
        (Printf.sprintf "C %016x %d %d %d %s\n" root rlba rlen (List.length parents)
           (to_hex msg));
      List.iter
        (fun p ->
          let plba, plen = loc_of t p in
          Buffer.add_string b (Printf.sprintf "%016x %d %d\n" p plba plen))
        parents);
  Buffer.contents b

let kind_of = function
  | Tree.Blob _ -> 'b'
  | Tree.Node _ -> 'n'
  | Tree.Commit _ -> 'c'

(* [lba] is the frame's own home in the data area — embedded so journal
   replay re-learns the assignment without a separate allocation map. *)
let encode_frame t h o ~lba =
  let body = encode_body t o in
  Printf.sprintf "o %016x %c %08d %08d\n%s" h (kind_of o) (String.length body) lba body

let frame_len body_len = frame_header + body_len

let int_of_hex s = try int_of_string ("0x" ^ s) with _ -> raise (Err Ukvfs.Fs.Eio)
let int_of_dec s = try int_of_string s with _ -> raise (Err Ukvfs.Fs.Eio)

(* Split [s] into its first line (without '\n') and the offset just past
   it. *)
let take_line s pos =
  match String.index_from_opt s pos '\n' with
  | None -> raise (Err Ukvfs.Fs.Eio)
  | Some nl -> (String.sub s pos (nl - pos), nl + 1)

let note_loc t h lba len = if h <> null && len > 0 then Hashtbl.replace t.locs h (lba, len)

(* Decode one frame starting at [pos]; registers child locations as a
   side effect and returns (hash, obj, own lba, frame bytes, next pos). *)
let decode_frame t s pos =
  if pos + frame_header > String.length s then raise (Err Ukvfs.Fs.Eio);
  let hdr = String.sub s pos frame_header in
  if String.length hdr <> frame_header || hdr.[0] <> 'o' || hdr.[frame_header - 1] <> '\n' then
    raise (Err Ukvfs.Fs.Eio);
  let h = int_of_hex (String.sub hdr 2 16) in
  let kind = hdr.[19] in
  let blen = int_of_dec (String.sub hdr 21 8) in
  let lba = int_of_dec (String.sub hdr 30 8) in
  if pos + frame_header + blen > String.length s then raise (Err Ukvfs.Fs.Eio);
  let body = String.sub s (pos + frame_header) blen in
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
              | [ vh; vlba; vlen; hk ] ->
                  let vh = int_of_hex vh in
                  note_loc t vh (int_of_dec vlba) (int_of_dec vlen);
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
              | [ nb; ch; clba; clen ] ->
                  let ch = int_of_hex ch in
                  note_loc t ch (int_of_dec clba) (int_of_dec clen);
                  kids := (int_of_dec nb, ch) :: !kids
              | _ -> raise (Err Ukvfs.Fs.Eio)
            done;
            Tree.Node (Tree.Branch (n, List.rev !kids))
        | _ -> raise (Err Ukvfs.Fs.Eio))
    | 'c' -> (
        let line, p = take_line body 0 in
        match String.split_on_char ' ' line with
        | [ "C"; root; rlba; rlen; np; hmsg ] ->
            let root = int_of_hex root in
            note_loc t root (int_of_dec rlba) (int_of_dec rlen);
            let np = int_of_dec np in
            let p = ref p in
            let parents = ref [] in
            for _ = 1 to np do
              let line, p' = take_line body !p in
              p := p';
              match String.split_on_char ' ' line with
              | [ ph; plba; plen ] ->
                  let ph = int_of_hex ph in
                  note_loc t ph (int_of_dec plba) (int_of_dec plen);
                  parents := ph :: !parents
              | _ -> raise (Err Ukvfs.Fs.Eio)
            done;
            Tree.Commit { root; parents = List.rev !parents; msg = of_hex hmsg }
        | _ -> raise (Err Ukvfs.Fs.Eio))
    | _ -> raise (Err Ukvfs.Fs.Eio)
  in
  (h, obj, lba, frame_header + blen, pos + frame_header + blen)

(* --- object resolution ----------------------------------------------------- *)

let load_obj t h =
  match Hashtbl.find_opt t.cache h with
  | Some o ->
      t.st <- { t.st with cache_hits = t.st.cache_hits + 1 };
      g.g_cache_hits <- g.g_cache_hits + 1;
      charge t node_cost;
      o
  | None -> (
      t.st <- { t.st with cache_misses = t.st.cache_misses + 1 };
      g.g_cache_misses <- g.g_cache_misses + 1;
      match Hashtbl.find_opt t.locs h with
      | None -> raise (Err Ukvfs.Fs.Eio)
      | Some (lba, len) -> (
          match t.dev.B.read_sync ~lba ~sectors:(sectors_of t len) with
          | Error _ -> raise (Err Ukvfs.Fs.Eio)
          | Ok raw ->
              let s = Bytes.sub_string raw 0 len in
              charge t (Uksim.Cost.memcpy len + Uksim.Cost.checksum len);
              let h', obj, _, _, _ = decode_frame t s 0 in
              (* Structural-hash verification: a frame that does not hash
                 to its own address is a torn or misdirected read. *)
              if h' <> h || Tree.hash_of_obj obj <> h then raise (Err Ukvfs.Fs.Eio);
              Hashtbl.replace t.cache h obj;
              Hashtbl.replace t.durable h ();
              obj))

let put_obj t o =
  let h = Tree.hash_of_obj o in
  charge t node_cost;
  if not (Hashtbl.mem t.cache h) then Hashtbl.replace t.cache h o;
  h

let mk_src t = { Tree.get = (fun h -> load_obj t h); put = (fun o -> put_obj t o); depth_seen = 0 }

(* --- root slots ------------------------------------------------------------ *)

let slot_magic = "ukss1"
let jr_magic = "ukjr1"
let jc_magic = "ukjc1"

let slot_line t =
  let hlba, hlen = if t.head = null then (0, 0) else loc_of t t.head in
  let core =
    Printf.sprintf "%s %d %d %016x %d %d %d %d" slot_magic t.epoch t.jcap t.head hlba hlen
      t.applied_seq t.data_head
  in
  Printf.sprintf "%s %016x\n" core (D.fnv_string core)

let write_slot t =
  let ss = t.dev.B.sector_size in
  let line = slot_line t in
  let sec = Bytes.make ss '\000' in
  Bytes.blit_string line 0 sec 0 (String.length line);
  match t.dev.B.write_sync ~lba:(t.epoch mod 2) sec with
  | Ok () -> ()
  | Error _ -> raise (Err Ukvfs.Fs.Eio)

(* Parse a slot sector; None when invalid (unformatted, torn, stale
   magic). *)
let parse_slot raw =
  let s = Bytes.to_string raw in
  match String.index_opt s '\n' with
  | None -> None
  | Some nl -> (
      let line = String.sub s 0 nl in
      match String.rindex_opt line ' ' with
      | None -> None
      | Some sp ->
          let core = String.sub line 0 sp in
          let ck = String.sub line (sp + 1) (String.length line - sp - 1) in
          if (try int_of_string ("0x" ^ ck) <> D.fnv_string core with _ -> true) then None
          else
            (match String.split_on_char ' ' core with
            | [ m; epoch; jcap; head; hlba; hlen; aseq; dh ] when m = slot_magic -> (
                try
                  Some
                    ( int_of_string epoch,
                      int_of_string jcap,
                      int_of_string ("0x" ^ head),
                      int_of_string hlba,
                      int_of_string hlen,
                      int_of_string aseq,
                      int_of_string dh )
                with _ -> None)
            | _ -> None))

let fsync t =
  t.dev.B.flush ();
  charge t Uksim.Cost.vm_exit;
  t.st <- { t.st with fsync_barriers = t.st.fsync_barriers + 1 };
  g.g_fsync_barriers <- g.g_fsync_barriers + 1

(* --- construction ---------------------------------------------------------- *)

let default_journal_sectors = 256

let mk ~clock dev ~jcap =
  let t =
    { clock; dev; jstart = 2; jcap; cache = Hashtbl.create 256; locs = Hashtbl.create 256;
      durable = Hashtbl.create 256; unckpt = []; head = null; root = null; epoch = 0;
      next_seq = 1; applied_seq = 0; jsector = 0; data_head = 2 + jcap; st = zero_stats;
      src = { Tree.get = (fun _ -> assert false); put = (fun _ -> assert false); depth_seen = 0 } }
  in
  t.src <- mk_src t;
  Lazy.force source;
  t

let guard f = try Ok (f ()) with Err e -> Error e

let format ~clock ?(journal_sectors = default_journal_sectors) dev =
  guard (fun () ->
      if journal_sectors < 3 || 2 + journal_sectors >= dev.B.capacity_sectors then
        raise (Err Ukvfs.Fs.Einval);
      let t = mk ~clock dev ~jcap:journal_sectors in
      write_slot t;
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

(* Post-order walk of the not-yet-durable objects reachable from [root]:
   children precede parents, so location assignment can run in list
   order. *)
let collect_new t root =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec walk h =
    if h <> null && (not (Hashtbl.mem seen h)) && not (Hashtbl.mem t.durable h) then begin
      Hashtbl.replace seen h ();
      (match load_obj t h with
      | Tree.Blob _ -> ()
      | Tree.Node (Tree.Leaf entries) -> List.iter (fun (_, vh) -> walk vh) entries
      | Tree.Node (Tree.Branch (_, kids)) -> List.iter (fun (_, ch) -> walk ch) kids
      | Tree.Commit { root; parents; _ } ->
          walk root;
          List.iter walk parents);
      acc := h :: !acc
    end
  in
  walk root;
  List.rev !acc

let commit_with t ~parents ~msg =
  let ss = t.dev.B.sector_size in
  let cobj = Tree.Commit { root = t.root; parents; msg } in
  let ch = put_obj t cobj in
  let objs = collect_new t ch in
  (* Assign data-area homes (sector-aligned frames), then encode — the
     post-order guarantees every child ref resolves. Rolled back if the
     journal write fails. *)
  let assigned = ref [] in
  let dh = ref t.data_head in
  let frames =
    try
      List.map
        (fun h ->
          let o = Hashtbl.find t.cache h in
          let body = encode_body t o in
          let flen = frame_len (String.length body) in
          let lba = !dh in
          dh := !dh + sectors_of t flen;
          Hashtbl.replace t.locs h (lba, flen);
          assigned := h :: !assigned;
          (h, encode_frame t h o ~lba))
        objs
    with e ->
      List.iter (fun h -> Hashtbl.remove t.locs h) !assigned;
      raise e
  in
  let rollback () =
    List.iter (fun h -> Hashtbl.remove t.locs h) !assigned
  in
  if !dh > t.dev.B.capacity_sectors then begin
    rollback ();
    raise (Err Ukvfs.Fs.Enospc)
  end;
  let payload = String.concat "" (List.map snd frames) in
  let plen = String.length payload in
  let psec = max 1 (sectors_of t plen) in
  let rsec = 2 + psec in
  if t.jsector + rsec > t.jcap then begin
    (* Ring full: fall through to the caller-visible checkpoint path. *)
    rollback ();
    raise (Err Ukvfs.Fs.Enospc)
  end;
  let seq = t.next_seq in
  let hcore = Printf.sprintf "%s %d %d %016x" jr_magic seq psec ch in
  let hline = Printf.sprintf "%s %016x\n" hcore (D.fnv_string hcore) in
  let pck = D.string_hash payload in
  let tcore = Printf.sprintf "%s %d %d %016x" jc_magic seq plen pck in
  let tline = Printf.sprintf "%s %016x\n" tcore (D.fnv_string tcore) in
  let rec_bytes = Bytes.make (rsec * ss) '\000' in
  Bytes.blit_string hline 0 rec_bytes 0 (String.length hline);
  Bytes.blit_string payload 0 rec_bytes ss plen;
  Bytes.blit_string tline 0 rec_bytes ((1 + psec) * ss) (String.length tline);
  charge t (Uksim.Cost.memcpy (rsec * ss) + Uksim.Cost.checksum plen);
  (match t.dev.B.write_sync ~lba:(t.jstart + t.jsector) rec_bytes with
  | Ok () -> ()
  | Error _ ->
      rollback ();
      raise (Err Ukvfs.Fs.Eio));
  fsync t;
  (* The record is on the medium: the commit is durable. *)
  t.jsector <- t.jsector + rsec;
  t.next_seq <- seq + 1;
  t.data_head <- !dh;
  List.iter
    (fun h ->
      Hashtbl.replace t.durable h ();
      t.unckpt <- t.unckpt @ [ h ])
    objs;
  t.head <- ch;
  t.st <-
    { t.st with commits = t.st.commits + 1; journal_records = t.st.journal_records + 1;
      journal_bytes = t.st.journal_bytes + (rsec * ss) };
  g.g_commits <- g.g_commits + 1;
  g.g_journal_records <- g.g_journal_records + 1;
  g.g_journal_bytes <- g.g_journal_bytes + (rsec * ss);
  g.g_tree_depth <- float_of_int t.src.Tree.depth_seen;
  ch

(* --- checkpoint ------------------------------------------------------------ *)

let checkpoint_exn t =
  if t.unckpt = [] && t.jsector = 0 then ()
  else begin
    (* Copy journaled frames to their pre-assigned data-area homes. *)
    let ss = t.dev.B.sector_size in
    List.iter
      (fun h ->
        let o = Hashtbl.find t.cache h in
        let lba, flen = loc_of t h in
        let frame = encode_frame t h o ~lba in
        let buf = Bytes.make (sectors_of t flen * ss) '\000' in
        Bytes.blit_string frame 0 buf 0 (String.length frame);
        charge t (Uksim.Cost.memcpy flen);
        match t.dev.B.write_sync ~lba buf with
        | Ok () -> ()
        | Error _ -> raise (Err Ukvfs.Fs.Eio))
      t.unckpt;
    fsync t;
    (* Atomic publish: one sector, alternate slot, then barrier. *)
    t.epoch <- t.epoch + 1;
    t.applied_seq <- t.next_seq - 1;
    (try write_slot t
     with e ->
       t.epoch <- t.epoch - 1;
       raise e);
    fsync t;
    t.unckpt <- [];
    t.jsector <- 0;
    t.st <- { t.st with checkpoints = t.st.checkpoints + 1 };
    g.g_checkpoints <- g.g_checkpoints + 1
  end

let checkpoint t = guard (fun () -> checkpoint_exn t)

(* --- recovery -------------------------------------------------------------- *)

let read_sectors t ~lba ~sectors =
  match t.dev.B.read_sync ~lba ~sectors with
  | Ok raw -> raw
  | Error _ -> raise (Err Ukvfs.Fs.Eio)

(* Parse a journal header sector: (seq, payload sectors, commit hash). *)
let parse_jheader raw =
  let s = Bytes.to_string raw in
  match String.index_opt s '\n' with
  | None -> None
  | Some nl -> (
      let line = String.sub s 0 nl in
      match String.split_on_char ' ' line with
      | [ m; seq; psec; ch; ck ] when m = jr_magic -> (
          try
            let core = Printf.sprintf "%s %s %s %s" m seq psec ch in
            if int_of_string ("0x" ^ ck) <> D.fnv_string core then None
            else Some (int_of_string seq, int_of_string psec, int_of_string ("0x" ^ ch))
          with _ -> None)
      | _ -> None)

let parse_jtrailer raw =
  let s = Bytes.to_string raw in
  match String.index_opt s '\n' with
  | None -> None
  | Some nl -> (
      let line = String.sub s 0 nl in
      match String.split_on_char ' ' line with
      | [ m; seq; plen; pck; ck ] when m = jc_magic -> (
          try
            let core = Printf.sprintf "%s %s %s %s" m seq plen pck in
            if int_of_string ("0x" ^ ck) <> D.fnv_string core then None
            else Some (int_of_string seq, int_of_string plen, int_of_string ("0x" ^ pck))
          with _ -> None)
      | _ -> None)

(* Replay one record at ring offset [off]; returns the ring offset past
   it, or None when the chain breaks (torn, stale, out-of-sequence). *)
let replay_record t ~off ~expect_seq =
  if off + 3 > t.jcap then None
  else
    match parse_jheader (read_sectors t ~lba:(t.jstart + off) ~sectors:1) with
    | None -> None
    | Some (seq, psec, chash) ->
        if seq <> expect_seq || psec < 1 || off + 2 + psec > t.jcap then None
        else
          let payload_raw = read_sectors t ~lba:(t.jstart + off + 1) ~sectors:psec in
          (match parse_jtrailer (read_sectors t ~lba:(t.jstart + off + 1 + psec) ~sectors:1) with
          | None -> None
          | Some (tseq, plen, pck) ->
              if tseq <> seq || plen < 0 || plen > psec * t.dev.B.sector_size then None
              else
                let payload = Bytes.sub_string payload_raw 0 plen in
                charge t (Uksim.Cost.checksum plen);
                if D.string_hash payload <> pck then None
                else begin
                  (* Checksums hold: decode and apply every frame. *)
                  try
                    let pos = ref 0 in
                    let applied = ref [] in
                    while !pos < plen do
                      let h, obj, lba, flen, pos' = decode_frame t payload !pos in
                      if Tree.hash_of_obj obj <> h then raise (Err Ukvfs.Fs.Eio);
                      applied := (h, obj, lba, flen) :: !applied;
                      pos := pos'
                    done;
                    List.iter
                      (fun (h, obj, lba, flen) ->
                        Hashtbl.replace t.cache h obj;
                        Hashtbl.replace t.locs h (lba, flen);
                        Hashtbl.replace t.durable h ();
                        t.unckpt <- t.unckpt @ [ h ];
                        if lba + sectors_of t flen > t.data_head then
                          t.data_head <- lba + sectors_of t flen)
                      (List.rev !applied);
                    t.head <- chash;
                    t.st <- { t.st with replayed_records = t.st.replayed_records + 1 };
                    g.g_replayed_records <- g.g_replayed_records + 1;
                    Some (off + 2 + psec)
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
            | Some ((epoch, _, _, _, _, _, _) as s) -> (
                match !best with
                | Some (e', _, _, _, _, _, _) when e' >= epoch -> ()
                | _ -> best := Some s)
            | None -> ())
      done;
      match !best with
      | None -> raise (Err Ukvfs.Fs.Einval)
      | Some (epoch, jcap, hd, hlba, hlen, aseq, dh) ->
          let t = mk ~clock dev ~jcap in
          t.epoch <- epoch;
          t.applied_seq <- aseq;
          t.next_seq <- aseq + 1;
          t.data_head <- dh;
          if hd <> null then note_loc t hd hlba hlen;
          t.head <- hd;
          (* Chain-replay the journal ring from the top. *)
          let off = ref 0 in
          let continue = ref true in
          while !continue do
            match replay_record t ~off:!off ~expect_seq:t.next_seq with
            | Some off' ->
                t.next_seq <- t.next_seq + 1;
                off := off'
            | None -> continue := false
          done;
          t.jsector <- !off;
          t.root <- (if t.head = null then null else (commit_of t t.head).Tree.root);
          g.g_replays <- g.g_replays + 1;
          t)

(* --- KV operations --------------------------------------------------------- *)

let set t k v =
  guard (fun () ->
      charge t (Uksim.Cost.checksum (String.length v));
      let vh = put_obj t (Tree.Blob v) in
      t.root <- Tree.set t.src t.root k vh)

let get t k =
  guard (fun () ->
      match Tree.find t.src t.root k with
      | None -> None
      | Some vh -> (
          match load_obj t vh with
          | Tree.Blob v -> Some v
          | Tree.Node _ | Tree.Commit _ -> raise (Err Ukvfs.Fs.Eio)))

let mem t k = match get t k with Ok (Some _) -> true | _ -> false

let del t k =
  guard (fun () ->
      let r' = Tree.remove t.src t.root k in
      let changed = r' <> t.root in
      t.root <- r';
      changed)

let to_list t =
  guard (fun () ->
      List.map
        (fun (k, vh) ->
          match load_obj t vh with
          | Tree.Blob v -> (k, v)
          | Tree.Node _ | Tree.Commit _ -> raise (Err Ukvfs.Fs.Eio))
        (Tree.to_list t.src t.root))

(* Every commit record goes through here. A full journal ring (or data
   area) is checkpointed, which frees the ring, and the commit is retried
   once. *)
let commit_retrying t ~parents ~msg =
  try commit_with t ~parents ~msg
  with Err Ukvfs.Fs.Enospc ->
    checkpoint_exn t;
    commit_with t ~parents ~msg

let commit t ?(msg = "") () =
  guard (fun () ->
      if t.head <> null && not (dirty t) then t.head
      else commit_retrying t ~parents:(if t.head = null then [] else [ t.head ]) ~msg)

let checkout t h =
  guard (fun () ->
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
let is_dirty t = guard (fun () -> dirty t)

(* Drop every clean cached object that can be re-read from the medium —
   the cold-cache lever for recovery and hit-rate experiments. *)
let drop_caches t =
  let keep = Hashtbl.create 16 in
  List.iter (fun h -> Hashtbl.replace keep h ()) t.unckpt;
  Hashtbl.iter
    (fun h _ ->
      if Hashtbl.mem t.durable h && Hashtbl.mem t.locs h && not (Hashtbl.mem keep h) then
        Hashtbl.remove t.cache h)
    (Hashtbl.copy t.cache)

(* --- merge ------------------------------------------------------------------ *)

let ancestors t h =
  let seen = Hashtbl.create 32 in
  let q = Queue.create () in
  if h <> null then Queue.push h q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      List.iter (fun p -> if p <> null then Queue.push p q) (commit_of t x).Tree.parents
    end
  done;
  seen

let is_ancestor t ~anc ~desc = anc <> null && Hashtbl.mem (ancestors t desc) anc

(* Lowest common ancestor: BFS from [b], first commit that is also an
   ancestor of [a]. Deterministic (queue order follows parent lists). *)
let lca t a b =
  if a = null || b = null then None
  else begin
    let of_a = ancestors t a in
    let seen = Hashtbl.create 32 in
    let q = Queue.create () in
    Queue.push b q;
    let found = ref None in
    while !found = None && not (Queue.is_empty q) do
      let x = Queue.pop q in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.replace seen x ();
        if Hashtbl.mem of_a x then found := Some x
        else List.iter (fun p -> if p <> null then Queue.push p q) (commit_of t x).Tree.parents
      end
    done;
    !found
  end

let map_of t root =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, vh) -> Hashtbl.replace tbl k vh) (Tree.to_list t.src root);
  tbl

(* Three-way merge of [other] into the current head. Deterministic and
   symmetric: conflicting updates resolve to the greater blob hash,
   modify beats delete, and the merge commit's hash is independent of
   which side initiated (parent hashes XOR-fold). Returns the merge
   commit and the number of conflicts resolved by policy. *)
let merge t other ?(msg = "merge") () =
  guard (fun () ->
      if dirty t then raise (Err Ukvfs.Fs.Einval);
      let ours = t.head in
      if other = ours || is_ancestor t ~anc:other ~desc:ours then (ours, 0)
      else if ours = null || is_ancestor t ~anc:ours ~desc:other then begin
        let c = commit_of t other in
        t.head <- other;
        t.root <- c.Tree.root;
        (other, 0)
      end
      else begin
        let base = lca t ours other in
        let bmap =
          match base with
          | None -> Hashtbl.create 1
          | Some b -> map_of t (commit_of t b).Tree.root
        in
        let omap = map_of t (commit_of t ours).Tree.root in
        let tmap = map_of t (commit_of t other).Tree.root in
        let root0 = t.root in
        let keys = Hashtbl.create 64 in
        Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) bmap;
        Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) omap;
        Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tmap;
        let sorted = List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) keys []) in
        let conflicts = ref 0 in
        List.iter
          (fun k ->
            let b = Hashtbl.find_opt bmap k in
            let o = Hashtbl.find_opt omap k in
            let th = Hashtbl.find_opt tmap k in
            let r =
              if o = th then o
              else if th = b then o (* theirs untouched: keep ours *)
              else if o = b then th (* ours untouched: take theirs *)
              else begin
                incr conflicts;
                match (o, th) with
                | Some a, Some c -> Some (max a c) (* greater hash wins *)
                | Some a, None -> Some a (* modify beats delete *)
                | None, Some c -> Some c
                | None, None -> None
              end
            in
            if r <> o then
              match r with
              | Some vh -> t.root <- Tree.set t.src t.root k vh
              | None -> t.root <- Tree.remove t.src t.root k)
          sorted;
        let ch =
          (* A failed merge leaves the store as it found it (clean), so
             it can be retried. *)
          try commit_retrying t ~parents:[ ours; other ] ~msg
          with e ->
            t.root <- root0;
            raise e
        in
        t.st <- { t.st with merges = t.st.merges + 1; conflicts = t.st.conflicts + !conflicts };
        g.g_merges <- g.g_merges + 1;
        g.g_conflicts <- g.g_conflicts + !conflicts;
        (ch, !conflicts)
      end)
