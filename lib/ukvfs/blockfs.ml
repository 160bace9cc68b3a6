module B = Ukblock.Blockdev

(* On-disk layout: sectors 0..7 hold the manifest ("blockfs1" magic line,
   then one "name lba size digest" line per object), data follows. *)
let sb_sectors = 8
let page = Digest.page
let sample = Digest.sample

(* Guest-side costs. Lookup is a manifest scan (the store holds a handful
   of large objects, not a directory tree); verification is the per-page
   64-byte sample checksum — the whole point of sampling is that the
   integrity check does not re-touch every streamed byte. *)
let lookup_base_cost = 60
let lookup_probe_cost = 20
let read_base_cost = 30

type obj = { name : string; lba : int; size : int; digest : int }

type t = {
  clock : Uksim.Clock.t;
  dev : B.t;
  mutable objs : obj list; (* oldest first *)
  mutable next_lba : int;
  open_handles : (int, obj) Hashtbl.t;
  mutable next_handle : int;
}

let charge t c = Uksim.Clock.advance t.clock c

(* --- digest: XOR-fold of (page index, FNV of the page's first 64 B) -----
   The primitives live in the shared {!Digest} module; ukstore's merkle
   hashing composes the same ones. *)

let digest_fold = Digest.fold_pages

(* --- superblock ---------------------------------------------------------- *)

let magic = "blockfs1"

let write_sb t =
  let b = Buffer.create 256 in
  Buffer.add_string b (magic ^ "\n");
  List.iter
    (fun o -> Buffer.add_string b (Printf.sprintf "%s %d %d %016x\n" o.name o.lba o.size o.digest))
    t.objs;
  let cap = sb_sectors * t.dev.B.sector_size in
  if Buffer.length b > cap then invalid_arg "Blockfs: manifest overflows the superblock";
  let sb = Bytes.make cap '\000' in
  Buffer.blit b 0 sb 0 (Buffer.length b);
  match t.dev.B.write_sync ~lba:0 sb with
  | Ok () -> ()
  | Error e -> invalid_arg ("Blockfs: superblock write failed: " ^ B.error_to_string e)

let create ~clock dev =
  let t =
    { clock; dev; objs = []; next_lba = sb_sectors;
      open_handles = Hashtbl.create 8; next_handle = 1 }
  in
  write_sb t;
  t

(* --- publication (host-side population) ---------------------------------- *)

let find t name =
  charge t lookup_base_cost;
  let rec probe = function
    | [] -> None
    | o :: rest ->
        charge t lookup_probe_cost;
        if String.equal o.name name then Some o else probe rest
  in
  probe t.objs

let exists t name = find t name <> None
let names t = List.map (fun o -> o.name) t.objs

(* 1 MiB publication chunks: few enough write_syncs that host-side
   population of a 512 MB object stays cheap. *)
let pub_chunk = 1 lsl 20

(* Host-side pure digest of a generated stream (no device, no clock) —
   lets publishers compute an object's content address before writing a
   single byte. *)
let digest_of_stream ~size ~fill =
  let buf = Bytes.create pub_chunk in
  let digest = ref 0 in
  let off = ref 0 in
  while !off < size do
    let len = min pub_chunk (size - !off) in
    Bytes.fill buf 0 len '\000';
    fill ~off:!off buf ~pos:0 ~len;
    digest := digest_fold !digest buf ~pos:0 ~off:!off ~len;
    off := !off + len
  done;
  !digest

let add_stream t ~name ~size ~fill =
  if exists t name then Error Fs.Eexist
  else if size < 0 then Error Fs.Einval
  else begin
    let ss = t.dev.B.sector_size in
    let sectors = (size + ss - 1) / ss in
    if t.next_lba + sectors > t.dev.B.capacity_sectors then Error Fs.Enospc
    else begin
      let lba = t.next_lba in
      let buf = Bytes.create pub_chunk in
      let digest = ref 0 in
      let off = ref 0 in
      let ok = ref true in
      while !ok && !off < size do
        let len = min pub_chunk (size - !off) in
        (* Round the tail up to a sector multiple, zero-padded. *)
        let wlen = (len + ss - 1) / ss * ss in
        Bytes.fill buf 0 wlen '\000';
        fill ~off:!off buf ~pos:0 ~len;
        digest := digest_fold !digest buf ~pos:0 ~off:!off ~len;
        (match t.dev.B.write_sync ~lba:(lba + (!off / ss)) (Bytes.sub buf 0 wlen) with
        | Ok () -> ()
        | Error _ -> ok := false);
        off := !off + len
      done;
      if not !ok then Error Fs.Eio
      else begin
        t.objs <- t.objs @ [ { name; lba; size; digest = !digest } ];
        t.next_lba <- lba + sectors;
        write_sb t;
        Ok !digest
      end
    end
  end

(* --- the specialized streaming read path --------------------------------- *)

type streamed = { bytes : int; digest : int; chunks : int }

(* Chunks kept in flight, and sectors per chunk (256 KiB at 512-byte
   sectors). *)
let window = 32
let chunk_sectors = 512

let stream t ~name ?(f = fun _ ~off:_ ~len:_ -> ()) () =
  match find t name with
  | None -> Error Fs.Enoent
  | Some o ->
      let ss = t.dev.B.sector_size in
      let total_sectors = (o.size + ss - 1) / ss in
      let submitted = ref 0 (* sectors *) in
      let inflight = ref 0 (* chunks *) in
      let done_bytes = ref 0 in
      let digest = ref 0 in
      let chunks = ref 0 in
      let failed = ref false in
      let top_up () =
        let reqs = ref [] in
        let sect_acc = ref 0 in
        while List.length !reqs < window - !inflight && !submitted + !sect_acc < total_sectors do
          let sect = min chunk_sectors (total_sectors - !submitted - !sect_acc) in
          reqs := B.Read { lba = o.lba + !submitted + !sect_acc; sectors = sect } :: !reqs;
          sect_acc := !sect_acc + sect
        done;
        let arr = Array.of_list (List.rev !reqs) in
        if Array.length arr > 0 then begin
          (* One kick per window, not per chunk. The device may accept
             fewer than offered; only the accepted prefix counts. *)
          let n = t.dev.B.submit arr in
          for i = 0 to n - 1 do
            match arr.(i) with
            | B.Read { sectors; _ } ->
                submitted := !submitted + sectors;
                incr inflight
            | B.Write _ -> ()
          done
        end
      in
      let process (c : B.completion) =
        decr inflight;
        incr chunks;
        match (c.B.req, c.B.result) with
        | B.Read { lba; sectors }, Ok data ->
            let off = (lba - o.lba) * ss in
            let len = min (o.size - off) (sectors * ss) in
            charge t (read_base_cost + ((len + page - 1) / page * Uksim.Cost.checksum sample));
            digest := !digest lxor digest_fold 0 data ~pos:0 ~off ~len;
            f data ~off ~len;
            done_bytes := !done_bytes + len
        | _, Error _ | B.Write _, _ -> failed := true
      in
      while (not !failed) && !done_bytes < o.size do
        top_up ();
        match t.dev.B.poll_completions ~max:window with
        | [] -> Uksim.Clock.advance t.clock 500
        | cs -> List.iter process cs
      done;
      if !failed then Error Fs.Eio
      else if !digest <> o.digest then Error Fs.Eio
      else Ok { bytes = !done_bytes; digest = !digest; chunks = !chunks }

(* --- generic vfscore view ------------------------------------------------- *)

let to_fs t =
  let base = Fs.not_supported "blockfs" in
  let resolve path =
    match Fs.split_path path with [ n ] -> n | _ -> path
  in
  let open_direct name =
    match find t name with
    | None -> Error Fs.Enoent
    | Some o ->
        let h = t.next_handle in
        t.next_handle <- h + 1;
        Hashtbl.replace t.open_handles h o;
        Ok h
  in
  {
    base with
    Fs.open_file =
      (fun path ~create ->
        if create then Error Fs.Enosys else open_direct (resolve path));
    read =
      (fun h ~off ~len ->
        charge t read_base_cost;
        match Hashtbl.find_opt t.open_handles h with
        | None -> Error Fs.Ebadf
        | Some o ->
            if off < 0 || len < 0 then Error Fs.Einval
            else begin
              let n = max 0 (min len (o.size - off)) in
              if n = 0 then Ok Bytes.empty
              else begin
                let ss = t.dev.B.sector_size in
                let first = off / ss and last = (off + n - 1) / ss in
                match
                  t.dev.B.read_sync ~lba:(o.lba + first) ~sectors:(last - first + 1)
                with
                | Error _ -> Error Fs.Eio
                | Ok raw ->
                    (* The generic path pays the copy the streaming path
                       avoids. *)
                    charge t (Uksim.Cost.memcpy n);
                    Ok (Bytes.sub raw (off - (first * ss)) n)
              end
            end);
    close = (fun h -> Hashtbl.remove t.open_handles h);
    stat =
      (fun path ->
        match find t (resolve path) with
        | Some o -> Ok { Fs.size = o.size; ftype = Fs.Regular }
        | None -> Error Fs.Enoent);
    readdir = (fun _ -> Ok (List.sort compare (names t)));
    fsync = (fun _ -> Ok ());
  }
