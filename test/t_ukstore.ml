(* Tests for ukstore: the canonical merkle trie, journal durability,
   crash recovery (the matrix: a crash at every sector boundary of a
   commit's journal record must recover to exactly the last durable
   commit), group commit, the object cache, and the store served by
   [Ukapps.Store]. *)

module St = Ukstore.Store
module Tr = Ukstore.Tree
module Fb = Ukfault.Faultblk
module B = Ukblock.Blockdev

let clock () = Uksim.Clock.create ()

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "ukstore error: %s" (Ukvfs.Fs.errno_to_string e)

let fresh ?(journal_sectors = 64) ?(capacity_sectors = 16384) () =
  let c = clock () in
  let dev = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors () in
  (c, dev, ok (St.format ~clock:c ~journal_sectors dev))

let set t k v = ok (St.set t k v)
let get t k = ok (St.get t k)
let del t k = ok (St.del t k)
let commit ?msg t = ok (St.commit t ?msg ())

(* Whether [anc] is [desc] or an ancestor of it, walked down the parents
   [St.commit_info] reads back, one commit per call. *)
let rec reaches t ~anc desc =
  desc = anc
  || desc <> St.null && List.exists (reaches t ~anc) (ok (St.commit_info t desc)).Tr.parents

(* How far sample [name] of the process-wide ukstore source moves from
   now on. *)
let counting name =
  let count () = Uktrace.Source.count (St.source ()) name in
  let at = count () in
  fun () -> count () - at

let read_sectors (dev : B.t) ~lba ~sectors =
  match dev.B.read_sync ~lba ~sectors with
  | Ok b -> b
  | Error _ -> Alcotest.failf "read at lba %d failed" lba

(* The records in the log below sector [upto], as (lba, payload sectors). *)
let log_records (dev : B.t) ~upto =
  let rec go lba acc =
    if lba >= upto then List.rev acc
    else
      match St.parse_jheader (read_sectors dev ~lba ~sectors:1) with
      | Some (_, psec, _) -> go (lba + 2 + psec) ((lba, psec) :: acc)
      | None -> Alcotest.failf "no record header at lba %d" lba
  in
  go 2 []

(* The payload of the record at [lba]. *)
let record_payload (dev : B.t) (lba, psec) =
  match St.parse_jtrailer (read_sectors dev ~lba:(lba + 1 + psec) ~sectors:1) with
  | Some (_, plen, _) -> Bytes.sub_string (read_sectors dev ~lba:(lba + 1) ~sectors:psec) 0 plen
  | None -> Alcotest.failf "no record trailer at lba %d" (lba + 1 + psec)

(* The frames of the record at [lba], in payload order. *)
let record_frames dev record =
  let payload = record_payload dev record in
  let rec go pos acc =
    if pos >= String.length payload then List.rev acc
    else
      match St.decode_frame payload pos with
      | Some ((_, _, _, flen, _) as frame) -> go (pos + flen) (frame :: acc)
      | None -> Alcotest.failf "no frame at payload offset %d" pos
  in
  go 0 []

(* Every frame in the log below sector [upto]. *)
let log_frames dev ~upto = List.concat_map (record_frames dev) (log_records dev ~upto)

(* --- basic KV + commit/checkout ------------------------------------------- *)

let test_basic_kv () =
  let _, _, t = fresh () in
  set t "alpha" "1";
  set t "beta" "2";
  Alcotest.(check (option string)) "get" (Some "1") (get t "alpha");
  Alcotest.(check (option string)) "missing" None (get t "gamma");
  set t "alpha" "updated";
  Alcotest.(check (option string)) "overwrite" (Some "updated") (get t "alpha");
  Alcotest.(check bool) "del hits" true (del t "beta");
  Alcotest.(check bool) "del misses" false (del t "beta");
  Alcotest.(check (option string)) "deleted" None (get t "beta")

let test_commit_checkout () =
  let _, _, t = fresh () in
  set t "k" "v1";
  let c1 = commit ~msg:"first" t in
  set t "k" "v2";
  set t "j" "x";
  let c2 = commit ~msg:"second" t in
  Alcotest.(check bool) "distinct commits" true (c1 <> c2);
  ok (St.checkout t c1);
  Alcotest.(check (option string)) "old value visible" (Some "v1") (get t "k");
  Alcotest.(check (option string)) "later key absent" None (get t "j");
  ok (St.checkout t c2);
  Alcotest.(check (option string)) "new value back" (Some "v2") (get t "k");
  let info = ok (St.commit_info t c2) in
  Alcotest.(check (list int)) "parent chain" [ c1 ] info.Tr.parents;
  Alcotest.(check string) "message" "second" info.Tr.msg

(* A commit after a checkout descends from the commit checked out, not
   from the head it replaced: history can fork, but each commit has one
   parent, and a remount follows the new head's chain. *)
let test_commit_after_checkout_forks () =
  let c, dev, t = fresh () in
  set t "a" "1";
  let c1 = commit t in
  set t "b" "2";
  let c2 = commit t in
  ok (St.checkout t c1);
  set t "c" "3";
  let c3 = commit ~msg:"fork" t in
  Alcotest.(check int) "the fork is the head" c3 (St.head t);
  Alcotest.(check (list int)) "its one parent is the commit checked out" [ c1 ]
    (ok (St.commit_info t c3)).Tr.parents;
  Alcotest.(check (option string)) "the other branch's key is absent" None (get t "b");
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "the remount finds the fork" c3 (St.head t');
  Alcotest.(check (list (pair string string))) "with its bindings" [ ("a", "1"); ("c", "3") ]
    (ok (St.to_list t'));
  Alcotest.(check bool) "the fork descends from c1" true (reaches t' ~anc:c1 c3);
  Alcotest.(check bool) "not from the other branch" false (reaches t' ~anc:c2 c3);
  ok (St.checkout t' c2);
  Alcotest.(check (list (pair string string))) "the other branch checks out"
    [ ("a", "1"); ("b", "2") ] (ok (St.to_list t'))

let test_empty_commit_noop () =
  let _, _, t = fresh () in
  let records = counting "journal_records" in
  set t "k" "v";
  let c1 = commit t in
  let c2 = commit t in
  Alcotest.(check int) "clean commit is a no-op" c1 c2;
  Alcotest.(check int) "only one journal record" 1 (records ())

(* --- persistence round-trips ----------------------------------------------- *)

let test_remount_replays_journal () =
  let c, dev, t = fresh () in
  set t "a" "1";
  set t "b" "2";
  let h1 = commit t in
  set t "a" "3";
  let h2 = commit t in
  (* No checkpoint: everything lives in the journal only. *)
  let replayed = counting "replayed_records" in
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "head recovered" h2 (St.head t');
  Alcotest.(check int) "two records replayed" 2 (replayed ());
  Alcotest.(check (option string)) "value" (Some "3") (ok (St.get t' "a"));
  Alcotest.(check (option string)) "other value" (Some "2") (ok (St.get t' "b"));
  ok (St.checkout t' h1);
  Alcotest.(check (option string)) "history intact" (Some "1") (ok (St.get t' "a"))

let test_remount_after_checkpoint () =
  let c, dev, t = fresh () in
  for i = 1 to 50 do
    set t (Printf.sprintf "key-%02d" i) (Printf.sprintf "val-%d" (i * i))
  done;
  let h = commit t in
  ok (St.checkpoint t);
  let replayed = counting "replayed_records" in
  let hits = counting "cache_hits" and misses = counting "cache_misses" in
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "head from slot" h (St.head t');
  Alcotest.(check int) "no journal replay needed" 0 (replayed ());
  (* Cold reads come from the log by address and verify structural
     hashes. *)
  Alcotest.(check (option string)) "cold read" (Some "val-49") (ok (St.get t' "key-07"));
  Alcotest.(check int) "cold reads miss the cache" 0 (hits ()) |> ignore;
  Alcotest.(check bool) "misses counted" true (misses () > 0)

(* After a mount, the unchanged subtrees already have homes on the
   medium: a commit journals only the path its change created, without
   reading the rest of the tree back to write it again. It writes the
   record the same commit writes on a store that was never remounted. *)
let test_commit_after_mount_journals_only_new () =
  let image () =
    let c, dev, t = fresh () in
    for i = 1 to 200 do
      set t (Printf.sprintf "key-%03d" i) (Printf.sprintf "val-%d" i)
    done;
    ignore (commit t);
    ok (St.checkpoint t);
    (c, dev, t)
  in
  let one_key_commit (dev : B.t) t =
    set t "key-001" "changed";
    let reads () = Uktrace.Source.count dev.B.source "reads" in
    let bytes = counting "journal_bytes" and at = reads () in
    ignore (commit t);
    (bytes (), reads () - at)
  in
  let _, live_dev, t = image () in
  let live = one_key_commit live_dev t in
  let c, dev, _ = image () in
  let mounted = one_key_commit dev (ok (St.open_ ~clock:c dev)) in
  Alcotest.(check (pair int int)) "journal bytes and device reads as on the live store" live
    mounted;
  let all (dev : B.t) = read_sectors dev ~lba:0 ~sectors:dev.B.capacity_sectors in
  Alcotest.(check bool) "the same bytes on the medium" true (Bytes.equal (all live_dev) (all dev));
  Alcotest.(check (option string)) "the commit survives a remount" (Some "changed")
    (ok (St.get (ok (St.open_ ~clock:c dev)) "key-001"))

let test_content_hash_matches_across_stores () =
  let _, _, t1 = fresh () in
  let _, _, t2 = fresh () in
  (* Different insertion orders, same final map. *)
  List.iter (fun (k, v) -> set t1 k v) [ ("a", "1"); ("b", "2"); ("c", "3"); ("d", "4") ];
  List.iter (fun (k, v) -> set t2 k v) [ ("d", "4"); ("b", "2"); ("a", "1"); ("c", "9") ];
  set t2 "c" "3";
  Alcotest.(check int) "same content, same root" (St.content_hash t1) (St.content_hash t2);
  set t2 "e" "5";
  Alcotest.(check bool) "divergence changes root" true
    (St.content_hash t1 <> St.content_hash t2)

(* --- qcheck properties ------------------------------------------------------ *)

let key_gen = QCheck.(string_gen_of_size (Gen.int_range 1 12) Gen.printable)
let kv_list_gen = QCheck.(small_list (pair key_gen (string_of_size (Gen.int_range 0 20))))

(* Dedup by key, last write wins — the map semantics of a KV store. *)
let as_map kvs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) kvs;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let prop_commit_checkout_roundtrip =
  QCheck.Test.make ~name:"commit/checkout round-trips any KV set" ~count:60 kv_list_gen
    (fun kvs ->
      let c, dev, t = fresh () in
      List.iter (fun (k, v) -> set t k v) kvs;
      ignore (commit t);
      let t' = ok (St.open_ ~clock:c dev) in
      ok (St.to_list t') = as_map kvs)

let prop_structural_hash_order_independent =
  QCheck.Test.make ~name:"root hash ignores insertion order" ~count:60
    QCheck.(pair kv_list_gen (small_list QCheck.small_nat))
    (fun (kvs, shuffle) ->
      let _, _, t1 = fresh () in
      let _, _, t2 = fresh () in
      (* A deterministic permutation driven by the generated ints. *)
      let arr = Array.of_list kvs in
      let n = Array.length arr in
      List.iteri
        (fun i s ->
          if n > 1 then begin
            let a = i mod n and b = s mod n in
            let tmp = arr.(a) in
            arr.(a) <- arr.(b);
            arr.(b) <- tmp
          end)
        shuffle;
      List.iter (fun (k, v) -> set t1 k v) kvs;
      Array.iter (fun (k, v) -> set t2 k v) arr;
      (* Replay the original order on top to make the maps equal (the
         permutation may have changed which duplicate-key write wins). *)
      List.iter (fun (k, v) -> set t2 k v) kvs;
      St.content_hash t1 = St.content_hash t2)

let prop_delete_restores_hash =
  QCheck.Test.make ~name:"insert then delete restores the root hash" ~count:60
    QCheck.(pair kv_list_gen (pair key_gen (string_of_size (Gen.return 4))))
    (fun (kvs, (k, v)) ->
      QCheck.assume (not (List.mem_assoc k kvs));
      let _, _, t = fresh () in
      List.iter (fun (k, v) -> set t k v) kvs;
      let before = St.content_hash t in
      set t k v;
      let mid = St.content_hash t in
      ignore (del t k);
      St.content_hash t = before && mid <> before)

(* --- crash matrix -----------------------------------------------------------

   The heart of the durability claim. Build a store, commit [pre]
   commits, then attempt one more commit with the device armed to die
   after n sectors, for every n from 0 up to the full record. Remount
   and check the invariant: if the doomed commit reported Ok it must be
   recovered; if it reported an error, the store must recover to
   exactly the previous commit — never a half state. *)

let crash_matrix_case ~arm_sectors ~pre =
  let c = clock () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let rng = Uksim.Rng.create 7 in
  let fb = Fb.wrap ~clock:c ~rng ~plan:(Fb.plan ()) inner in
  let dev = Fb.dev fb in
  let t = ok (St.format ~clock:c ~journal_sectors:64 dev) in
  for i = 1 to pre do
    set t (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i);
    ignore (commit t)
  done;
  let survivor = St.head t in
  Fb.crash_after_writes fb arm_sectors;
  set t "doomed" "payload";
  let outcome = St.commit t () in
  Fb.revive fb;
  let t' = ok (St.open_ ~clock:c inner) in
  (match outcome with
  | Ok h ->
      Alcotest.(check int)
        (Printf.sprintf "arm=%d: acked commit recovered" arm_sectors)
        h (St.head t');
      Alcotest.(check (option string))
        (Printf.sprintf "arm=%d: acked write present" arm_sectors)
        (Some "payload")
        (ok (St.get t' "doomed"))
  | Error _ ->
      Alcotest.(check int)
        (Printf.sprintf "arm=%d: unacked commit rolled back" arm_sectors)
        survivor (St.head t');
      Alcotest.(check (option string))
        (Printf.sprintf "arm=%d: torn write invisible" arm_sectors)
        None
        (ok (St.get t' "doomed")));
  (* Either way, history up to the survivor is intact. *)
  if pre > 0 then
    Alcotest.(check (option string))
      (Printf.sprintf "arm=%d: old data intact" arm_sectors)
      (Some (Printf.sprintf "v%d" pre))
      (ok (St.get t' (Printf.sprintf "k%d" pre)))

let test_crash_matrix () =
  (* A commit's record here is a handful of sectors; sweep well past it
     so the last cases are clean (no crash reached). *)
  for arm = 0 to 12 do
    crash_matrix_case ~arm_sectors:arm ~pre:3
  done

let test_crash_on_first_commit () =
  for arm = 0 to 6 do
    crash_matrix_case ~arm_sectors:arm ~pre:0
  done

let checkpoint_history t =
  for i = 1 to 8 do
    set t (Printf.sprintf "k%d" i) (String.make 600 (Char.chr (64 + i)));
    ignore (commit t)
  done

let sectors_written (dev : B.t) = Uktrace.Source.count dev.B.source "sectors_written"

(* A checkpoint's one write is the root slot, so there is no run of
   frames to tear. The device dies before that sector and after it;
   either way the head and every key survive, replayed from the log or
   read cold through the new slot. *)
let test_crash_during_checkpoint () =
  let c = clock () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let rng = Uksim.Rng.create 7 in
  let fb = Fb.wrap ~clock:c ~rng ~plan:(Fb.plan ()) inner in
  let dev = Fb.dev fb in
  let t = ok (St.format ~clock:c ~journal_sectors:64 dev) in
  checkpoint_history t;
  let head = St.head t in
  List.iter
    (fun arm ->
      Fb.crash_after_writes fb arm;
      let before = sectors_written inner in
      let r = St.checkpoint t in
      Fb.revive fb;
      Alcotest.(check int) (Printf.sprintf "ckpt arm=%d: sectors persisted" arm) arm
        (sectors_written inner - before);
      Alcotest.(check bool) (Printf.sprintf "ckpt arm=%d: Ok iff the slot landed" arm) (arm = 1)
        (Result.is_ok r);
      let replayed = counting "replayed_records" in
      let t' = ok (St.open_ ~clock:c inner) in
      Alcotest.(check int)
        (Printf.sprintf "ckpt arm=%d: records replayed" arm)
        (if arm = 0 then 8 else 0)
        (replayed ());
      Alcotest.(check int)
        (Printf.sprintf "ckpt arm=%d: head survives" arm)
        head (St.head t');
      for i = 1 to 8 do
        Alcotest.(check (option string))
          (Printf.sprintf "ckpt arm=%d: k%d survives" arm i)
          (Some (String.make 600 (Char.chr (64 + i))))
          (ok (St.get t' (Printf.sprintf "k%d" i)))
      done)
    [ 0; 1 ]

(* An object's home is its frame inside the record that made it durable,
   so a checkpoint writes the root slot and nothing else, however many
   commits it folds. Values of 1-1,500 bytes make frames straddle
   sector boundaries, and cold reads fetch each one from its byte
   address. *)
let test_checkpoint_is_one_slot_write () =
  let value i = String.make (1 + (i * 277 mod 1500)) (Char.chr (97 + (i mod 26))) in
  let straddling = ref 0 in
  List.iter
    (fun n ->
      let c, dev, t = fresh ~journal_sectors:256 () in
      let checkpoints = counting "checkpoints" in
      for i = 1 to n do
        set t (Printf.sprintf "key-%d" i) (value i);
        ignore (commit t)
      done;
      Alcotest.(check int) (Printf.sprintf "n=%d: no flip before the checkpoint" n) 0
        (checkpoints ());
      let count = Uktrace.Source.count dev.B.source in
      let writes = count "writes" and sectors = count "sectors_written" in
      ok (St.checkpoint t);
      Alcotest.(check int) (Printf.sprintf "n=%d: one write" n) 1 (count "writes" - writes);
      Alcotest.(check int) (Printf.sprintf "n=%d: of one sector" n) 1
        (count "sectors_written" - sectors);
      Alcotest.(check int) (Printf.sprintf "n=%d: one flip" n) 1 (checkpoints ());
      let replayed = counting "replayed_records" in
      let t' = ok (St.open_ ~clock:c dev) in
      Alcotest.(check int) (Printf.sprintf "n=%d: no replay" n) 0 (replayed ());
      for i = 1 to n do
        Alcotest.(check (option string))
          (Printf.sprintf "n=%d: key-%d cold" n i)
          (Some (value i))
          (ok (St.get t' (Printf.sprintf "key-%d" i)))
      done;
      let ss = dev.B.sector_size in
      List.iter
        (fun (_, _, addr, len, _) -> if addr / ss <> (addr + len - 1) / ss then incr straddling)
        (log_frames dev ~upto:(St.log_head t')))
    [ 1; 5; 16 ];
  Alcotest.(check bool) "some cold frames straddle sectors" true (!straddling > 0)

let write_sectors (dev : B.t) ~lba b =
  match dev.B.write_sync ~lba b with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "write at lba %d failed" lba

(* A frame whose length field reads negative is corrupt input. A cold
   read of it reports Eio, and replay ends at the record holding it, as
   at a torn record; neither raises. Record 1 opens the log at lba 2,
   its payload at lba 3, and the blob comes first in a commit's
   post-order, so its frame opens the payload. *)
let test_negative_frame_length () =
  let corrupt sec =
    Alcotest.(check char) "blob frame" 'b' (Bytes.get sec 19);
    Bytes.blit_string "-0000001" 0 sec 21 8
  in
  (* Past the checkpoint, where only a cold read decodes it. *)
  let c, dev, t = fresh () in
  set t "k" "v";
  ignore (commit t);
  ok (St.checkpoint t);
  let sec = read_sectors dev ~lba:3 ~sectors:1 in
  corrupt sec;
  write_sectors dev ~lba:3 sec;
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check bool) "cold read is Eio" true (St.get t' "k" = Error Ukvfs.Fs.Eio);
  (* Before any checkpoint, where replay decodes it. Its trailer is
     re-sealed over the corrupted payload, so only the frame decoder can
     reject it. *)
  let c, dev, t = fresh () in
  set t "k" "v";
  ignore (commit t);
  let header = Bytes.to_string (read_sectors dev ~lba:2 ~sectors:1) in
  let psec = Scanf.sscanf header "%s %d %d" (fun _ _ psec -> psec) in
  let payload = read_sectors dev ~lba:3 ~sectors:psec in
  corrupt payload;
  write_sectors dev ~lba:3 payload;
  let trailer = Bytes.to_string (read_sectors dev ~lba:(3 + psec) ~sectors:1) in
  let seq, plen = Scanf.sscanf trailer "%s %d %d" (fun _ seq plen -> (seq, plen)) in
  let core =
    Printf.sprintf "%s %d %d %016x" St.jc_magic seq plen
      (Ukvfs.Digest.string_hash (Bytes.sub_string payload 0 plen))
  in
  let line = Printf.sprintf "%s %016x\n" core (Ukvfs.Digest.fnv_string core) in
  let sec = Bytes.make dev.B.sector_size '\000' in
  Bytes.blit_string line 0 sec 0 (String.length line);
  write_sectors dev ~lba:(3 + psec) sec;
  let replayed = counting "replayed_records" in
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "replay ends at the record" 0 (replayed ());
  Alcotest.(check (option string)) "its commit is not recovered" None (ok (St.get t' "k"))

let test_recovery_is_deterministic () =
  let c = clock () in
  let dev = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let t = ok (St.format ~clock:c dev) in
  for i = 1 to 20 do
    set t (Printf.sprintf "key-%d" i) (Printf.sprintf "value-%d" i);
    if i mod 3 = 0 then ignore (commit t)
  done;
  ignore (commit t);
  let t1 = ok (St.open_ ~clock:c dev) in
  let t2 = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "same head" (St.head t1) (St.head t2);
  Alcotest.(check bool) "same content" true (ok (St.to_list t1) = ok (St.to_list t2));
  Alcotest.(check int) "same root hash" (St.content_hash t1) (St.content_hash t2)

(* --- replay bound / checkpoint pressure ------------------------------------ *)

let test_journal_ring_wraps_via_checkpoint () =
  (* A tiny replay bound makes commits flip the root slot as they go. *)
  let _, _, t = fresh ~journal_sectors:12 () in
  let commits = counting "commits" and checkpoints = counting "checkpoints" in
  for i = 1 to 40 do
    set t (Printf.sprintf "k%d" i) (String.make 100 'x');
    ignore (commit t)
  done;
  Alcotest.(check int) "all commits landed" 40 (commits ());
  Alcotest.(check bool) "checkpoints forced" true (checkpoints () > 0);
  Alcotest.(check (option string)) "data intact" (Some (String.make 100 'x')) (get t "k40")

(* --- the served workload ---------------------------------------------------- *)

let test_store_server_cluster () =
  let cl = Ukapps.Cluster.create ~n:1 () in
  ignore (Ukapps.Cluster.add_store cl ~transport:Ukapps.Serve.Socket ~keys:64 ());
  let commits = counting "commits" in
  let r =
    Ukapps.Cluster.run_load cl ~transport:Ukapps.Serve.Socket ~port:7000 ~connections_per_core:4
      ~requests_per_core:400
      (Ukapps.Store.client ~write_frac:0.5 ~keyspace:128 ~commit_every:50 ())
  in
  Alcotest.(check int) "no protocol errors" 0 r.Ukapps.Load.errors;
  Alcotest.(check int) "all requests answered" 400 r.Ukapps.Load.requests;
  Alcotest.(check bool) "commits happened" true (commits () > 0);
  Alcotest.(check bool) "throughput positive" true (r.Ukapps.Load.rate_per_sec > 0.0)

let test_store_server_fast_replay_identical () =
  let run () =
    let cl = Ukapps.Cluster.create ~n:2 () in
    let transport = Ukapps.Serve.Netbuf { rtc = true } in
    let srvs = Ukapps.Cluster.add_store cl ~transport ~keys:64 () in
    let r =
      Ukapps.Cluster.run_load cl ~transport ~port:7000 ~connections_per_core:4
        ~requests_per_core:300 (Ukapps.Store.client ~write_frac:0.3 ~commit_every:40 ())
    in
    let roots = Array.map Ukapps.Store.state_hash srvs in
    (r.Ukapps.Load.errors, roots, Ukapps.Cluster.trace_hash cl)
  in
  let e1, roots1, h1 = run () in
  let e2, roots2, h2 = run () in
  Alcotest.(check int) "fast path clean" 0 e1;
  Alcotest.(check bool) "same seed, same store roots" true (roots1 = roots2);
  Alcotest.(check int) "same seed, same trace hash" h1 h2;
  Alcotest.(check int) "errors deterministic" e1 e2

(* --- the served store -----------------------------------------------------------

   A one-core rig: the store served over a loopback pair on one
   cooperative scheduler. Each client is a thread body given [rpc], which
   sends request lines as one chunk and returns their replies in order;
   [at_ns] starts the chunk at an absolute virtual time. *)

module S = Uknetstack.Stack
module A = Uknetstack.Addr

type rpc = ?at_ns:float -> string list -> string list

let serve_store ~clock ~engine st (clients : (rpc -> unit) list) =
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let stack dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let server = stack da "10.9.0.1" 0x91 and client = stack db "10.9.0.2" 0x92 in
  ignore
    (Ukapps.Store.serve ~transport:Ukapps.Serve.Socket ~clock ~sched ~stack:server ~store:st ());
  List.iter
    (fun body ->
      ignore
        (Uksched.Sched.spawn sched ~name:"store-client" (fun () ->
             let flow = S.Tcp_socket.connect client ~dst:(A.Ipv4.of_string "10.9.0.1", 7000) () in
             let rpc ?at_ns lines =
               Option.iter
                 (fun at -> Uksched.Sched.sleep_ns (Float.max 0.0 (at -. Uksim.Clock.ns clock)))
                 at_ns;
               let chunk = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
               ignore (S.Tcp_socket.send ~block:true client flow (Bytes.of_string chunk));
               let want = List.length lines * Ukapps.Store.reply_len in
               let got = Buffer.create want in
               while Buffer.length got < want do
                 let max = want - Buffer.length got in
                 match S.Tcp_socket.recv ~block:true client flow ~max with
                 | None -> Alcotest.fail "server closed"
                 | Some b -> Buffer.add_bytes got b
               done;
               List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents got))
             in
             body rpc;
             S.Tcp_socket.close client flow)))
    clients;
  Uksched.Sched.run sched;
  Uktrace.Registry.clear ()

let status r = String.sub r 0 2
let reply_hash r = int_of_string ("0x" ^ String.sub r 3 16)

let test_store_server_survives_crash_restart () =
  (* Serve writes against a fault-wrapped device, kill it mid-flight,
     remount: the store must come back to the last acked COMMIT. *)
  let c = clock () in
  let engine = Uksim.Engine.create c in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let rng = Uksim.Rng.create 3 in
  let fb = Fb.wrap ~clock:c ~rng ~plan:(Fb.plan ()) inner in
  let t = ok (St.format ~clock:c (Fb.dev fb)) in
  let acked = ref [] and durable_head = ref St.null and doomed = ref [] in
  let sets lo hi =
    List.init (hi - lo + 1) (fun i -> Printf.sprintf "SET user%d data%d" (lo + i) (lo + i))
  in
  serve_store ~clock:c ~engine t
    [
      (fun (rpc : rpc) ->
        (* Three explicit COMMITs, then five SETs left uncommitted. *)
        List.iter
          (fun lo ->
            match List.rev (rpc (sets lo (lo + 9) @ [ "COMMIT" ])) with
            | r :: _ -> acked := r :: !acked
            | [] -> ())
          [ 0; 10; 20 ];
        ignore (rpc (sets 30 34));
        durable_head := St.head t;
        (* The device dies: the SETs are acked into the working tree, but
           the COMMIT after them fails and nothing new becomes durable. *)
        Fb.crash_after_writes fb 0;
        doomed := rpc (sets 100 120 @ [ "COMMIT" ]));
    ];
  Fb.revive fb;
  Alcotest.(check (list string)) "three COMMITs acked" [ "OK"; "OK"; "OK" ]
    (List.map status !acked);
  Alcotest.(check int) "last ack names the head" (reply_hash (List.hd !acked)) !durable_head;
  Alcotest.(check string) "COMMIT on a dead device fails" "ER"
    (status (List.nth !doomed 21));
  let t' = ok (St.open_ ~clock:c inner) in
  Alcotest.(check int) "recovered to last durable commit" !durable_head (St.head t');
  Alcotest.(check (option string)) "committed data present" (Some "data29")
    (ok (St.get t' "user29"));
  Alcotest.(check (option string)) "uncommitted SET gone" None (ok (St.get t' "user30"));
  Alcotest.(check (option string)) "post-crash writes gone" None (ok (St.get t' "user100"))

(* --- group commit ----------------------------------------------------------------- *)

(* COMMITs from k connections that arrive while one record is in flight
   share the next record: two records for k + 1 COMMITs, and the late
   ones are answered with one commit. *)
let test_group_commit_shares_a_record () =
  let c = clock () in
  let engine = Uksim.Engine.create c in
  let dev = Ukblock.Virtio_blk.create ~clock:c ~engine ~capacity_sectors:16384 () in
  let t = ok (St.format ~clock:c dev) in
  let records = counting "journal_records" and commits = ref [] in
  let k = 4 in
  (* The first COMMIT goes out at 2 ms; the rest land 5 us later, well
     inside its 20 us device write. *)
  serve_store ~clock:c ~engine t
    (List.init (k + 1) (fun i (rpc : rpc) ->
         let at_ns = if i = 0 then 2e6 else 2.005e6 in
         match rpc ~at_ns [ Printf.sprintf "SET key%d v%d" i i; "COMMIT" ] with
         | [ _; r ] -> commits := (i, r) :: !commits
         | _ -> Alcotest.fail "two replies"));
  Alcotest.(check int) "two journal records" 2 (records ());
  let acks = List.sort compare !commits in
  List.iter
    (fun (i, r) -> Alcotest.(check string) (Printf.sprintf "conn %d acked" i) "OK" (status r))
    acks;
  let late =
    List.sort_uniq compare (List.filter_map (fun (i, r) -> if i > 0 then Some r else None) acks)
  in
  Alcotest.(check int) "late COMMITs share one commit" 1 (List.length late);
  Alcotest.(check int) "it is the head" (St.head t) (reply_hash (List.hd late));
  for i = 0 to k do
    Alcotest.(check (option string)) "value" (Some (Printf.sprintf "v%d" i))
      (ok (St.get t (Printf.sprintf "key%d" i)))
  done

(* Library-level group commit over virtio-blk: a committer-less store is
   driven by hand with [reap] and the device's latency. *)
let virtio_store () =
  let c = clock () in
  let engine = Uksim.Engine.create c in
  let dev = Ukblock.Virtio_blk.create ~clock:c ~engine ~capacity_sectors:16384 () in
  (c, dev, ok (St.format ~clock:c dev))

let waiter () =
  let got = ref None in
  ((fun r -> got := Some r), got)

(* A cache miss during an in-flight record waits the record out first:
   the read gets its own sectors back (not the record's completion), and
   the group is still answered. *)
let test_cache_miss_during_flight () =
  let c, dev, t = virtio_store () in
  for i = 0 to 63 do
    set t (Printf.sprintf "old%02d" i) (Printf.sprintf "value-%d" i)
  done;
  ignore (commit t);
  ok (St.checkpoint t);
  St.drop_caches t;
  set t "new" "fresh";
  let k, got = waiter () in
  St.commit_group t k;
  Alcotest.(check bool) "record submitted" true (St.reap t = true);
  Alcotest.(check bool) "not answered yet" true (!got = None);
  let misses = counting "cache_misses" in
  Alcotest.(check (option string)) "cold GET during the flight" (Some "value-17")
    (get t "old17");
  Alcotest.(check bool) "it missed" true (misses () > 0);
  Alcotest.(check bool) "record waited out: head moved" true (St.head t <> St.null);
  ignore (St.reap t);
  (match !got with
  | Some (Ok h) -> Alcotest.(check int) "answered with the head" (St.head t) h
  | _ -> Alcotest.fail "COMMIT not acked");
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check (option string)) "durable" (Some "fresh") (ok (St.get t' "new"))

(* Under random I/O errors every waiter of a group shares its fate, and
   a failed group does not wedge the store: a later one commits
   everything, the failed group's writes included. *)
let test_group_io_error () =
  let c = clock () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let fb = Fb.wrap ~clock:c ~rng:(Uksim.Rng.create 11) ~plan:(Fb.plan ~io_error:0.4 ()) inner in
  let rec format () = match St.format ~clock:c (Fb.dev fb) with Ok t -> t | Error _ -> format () in
  let t = format () in
  let outcomes = ref [] in
  for g = 0 to 19 do
    set t (Printf.sprintf "g%02d" g) "x";
    let ws = List.init 3 (fun _ -> waiter ()) in
    List.iter (fun (k, _) -> St.commit_group t k) ws;
    ignore (St.reap t);
    let rs = List.map (fun (_, got) -> Option.get !got) ws in
    (match rs with
    | Ok h :: rest ->
        List.iter (fun r -> Alcotest.(check bool) "one commit per group" true (r = Ok h)) rest
    | Error _ :: rest ->
        List.iter
          (fun r -> Alcotest.(check bool) "every waiter gets the error" true (Result.is_error r))
          rest
    | [] -> ());
    outcomes := (g, List.hd rs) :: !outcomes
  done;
  let outcomes = List.rev !outcomes in
  let failed_then_ok =
    List.exists
      (fun (g, r) ->
        Result.is_error r && List.exists (fun (g', r') -> g' > g && Result.is_ok r') outcomes)
      outcomes
  in
  Alcotest.(check bool) "a failed group, then a committed one" true failed_then_ok;
  let last_ok =
    List.fold_left (fun acc (g, r) -> if Result.is_ok r then g else acc) (-1) outcomes
  in
  Fb.revive fb;
  let t' = ok (St.open_ ~clock:c inner) in
  for g = 0 to last_ok do
    Alcotest.(check (option string)) (Printf.sprintf "g%02d durable" g) (Some "x")
      (ok (St.get t' (Printf.sprintf "g%02d" g)))
  done

(* The crash matrix over group commit: two grouped records, the device
   dies at every sector of either. Whatever was acked survives. *)
let group_crash_case arm =
  let c = clock () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let fb = Fb.wrap ~clock:c ~rng:(Uksim.Rng.create 7) ~plan:(Fb.plan ()) inner in
  let t = ok (St.format ~clock:c ~journal_sectors:64 (Fb.dev fb)) in
  set t "base" "b";
  ignore (commit t);
  Fb.crash_after_writes fb arm;
  let group keys =
    List.iter (fun k -> set t k (k ^ "-value")) keys;
    let ws = List.init 3 (fun _ -> waiter ()) in
    List.iter (fun (k, _) -> St.commit_group t k) ws;
    ignore (St.reap t);
    List.map (fun (_, got) -> Option.get !got) ws
  in
  let a = group [ "a1"; "a2" ] in
  let b = group [ "b1"; "b2"; "b3" ] in
  Fb.revive fb;
  let t' = ok (St.open_ ~clock:c inner) in
  let acked rs keys =
    match rs with
    | Ok h :: _ ->
        Alcotest.(check bool) (Printf.sprintf "arm=%d: head at or past the ack" arm) true
          (reaches t' ~anc:h (St.head t'));
        List.iter
          (fun k ->
            Alcotest.(check (option string)) (Printf.sprintf "arm=%d: %s survives" arm k)
              (Some (k ^ "-value")) (ok (St.get t' k)))
          keys;
        true
    | _ -> false
  in
  let a_ok = acked a [ "a1"; "a2" ] in
  let b_ok = acked b [ "a1"; "a2"; "b1"; "b2"; "b3" ] in
  Alcotest.(check (option string)) (Printf.sprintf "arm=%d: history intact" arm) (Some "b")
    (ok (St.get t' "base"));
  (a_ok, b_ok)

let test_group_crash_matrix () =
  (* Sweep until both records land whole; the early arms tear the first
     record, the later ones the second. *)
  let rec sweep arm ~tore_b =
    let a_ok, b_ok = group_crash_case arm in
    let tore_b = tore_b || (a_ok && not b_ok) in
    if a_ok && b_ok then (arm, tore_b) else sweep (arm + 1) ~tore_b
  in
  let arms, tore_b = sweep 0 ~tore_b:false in
  Alcotest.(check bool) "some arm tore the second record" true tore_b;
  Alcotest.(check bool) "both records span several sectors" true (arms >= 6)

(* The same invariant as a seeded property over random pipelines of SETs,
   COMMITs, device progress and crash budgets armed mid-pipeline: after
   the crash and a remount, the state an acked COMMIT saw survives. *)
type op = Set of int * int | Commit | Tick | Crash of int

let op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map2 (fun k v -> Set (k, v)) (int_bound 7) (int_bound 99)); (2, return Commit);
        (2, return Tick); (1, map (fun n -> Crash n) (int_bound 30)) ])

let pipeline_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Set (k, v) -> Printf.sprintf "S%d=%d" k v
             | Commit -> "C"
             | Tick -> "T"
             | Crash n -> Printf.sprintf "X%d" n)
           ops))
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

(* Cases in which a flip landed. The property runs at the smallest
   replay bound, so every publish starts a flip beside the next record. *)
let flipped_cases = ref 0

let prop_group_crash_loses_no_ack =
  QCheck.Test.make ~name:"group commit loses no acked COMMIT at any crash point" ~count:60
    pipeline_arb (fun ops ->
      let c = clock () in
      let engine = Uksim.Engine.create c in
      let inner = Ukblock.Virtio_blk.create ~clock:c ~engine ~capacity_sectors:16384 () in
      let fb = Fb.wrap ~clock:c ~rng:(Uksim.Rng.create 5) ~plan:(Fb.plan ()) inner in
      let t = ok (St.format ~clock:c ~journal_sectors:3 (Fb.dev fb)) in
      let flips = counting "checkpoints" in
      (* model.(k): every value SET for key k, newest first. *)
      let model = Array.make 8 [] in
      let last_ack = ref None in
      let tick () =
        Uksim.Clock.advance_ns c 30_000.0;
        ignore (St.reap t)
      in
      List.iteri
        (fun i -> function
          | Set (k, v) ->
              (* Unique per SET, so a value names the SET that wrote it. *)
              let v = Printf.sprintf "%d.%d" v i in
              ignore (St.set t (Printf.sprintf "k%d" k) v);
              model.(k) <- v :: model.(k)
          | Commit ->
              (* What this COMMIT must keep: each key's value now. *)
              let seen = Array.map (fun l -> List.length l) model in
              St.commit_group t (function Ok _ -> last_ack := Some seen | Error _ -> ())
          | Tick -> tick ()
          | Crash n -> if not (Fb.crashed fb) then Fb.crash_after_writes fb n)
        ops;
      tick ();
      tick ();
      if flips () > 0 then incr flipped_cases;
      Fb.revive fb;
      match St.open_ ~clock:c inner with
      | Error _ -> false
      | Ok t' -> (
          match !last_ack with
          | None -> true
          | Some seen ->
              (* Each key holds the value it had at the acked COMMIT, or
                 one SET after it. *)
              Array.for_all Fun.id
                (Array.mapi
                   (fun k n ->
                     let vs = model.(k) in
                     let allowed = List.filteri (fun i _ -> i < List.length vs - n + 1) vs in
                     match St.get t' (Printf.sprintf "k%d" k) with
                     | Ok None -> n = 0
                     | Ok (Some v) -> n = 0 || List.mem v allowed
                     | Error _ -> false)
                   seen)))

let test_group_crash_property () =
  flipped_cases := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x6c0 |]) prop_group_crash_loses_no_ack;
  Alcotest.(check bool)
    (Printf.sprintf "most cases flip mid-pipeline (%d of 60)" !flipped_cases)
    true
    (!flipped_cases > 30)

(* --- flips beside records -------------------------------------------------------- *)

(* A device whose completions the test releases by hand: a write
   persists at submit (a crash budget counts sectors in submit order),
   but the store sees it complete only once [release] lets it through,
   so a record and a slot write can be outstanding together. The third
   result counts the writes the store has submitted and not yet seen
   complete. *)
let held (dev : B.t) =
  let allowed = ref 0 and outstanding = ref 0 in
  let submit reqs =
    let n = dev.B.submit reqs in
    outstanding := !outstanding + n;
    n
  in
  let poll_completions ~max =
    let cs = dev.B.poll_completions ~max:(min max !allowed) in
    allowed := !allowed - List.length cs;
    outstanding := !outstanding - List.length cs;
    cs
  in
  ({ dev with B.submit; poll_completions }, (fun n -> allowed := n), fun () -> !outstanding)

(* Record A completes and its publish starts flip A; group B, joined
   while A was in flight, goes out before flip A completes. The device
   dies at every sector of A, flip A, B and flip B: whatever was acked
   survives. Returns (A acked, B acked, flip A landed, both were
   outstanding). *)
let flip_crash_case arm =
  let c = clock () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let fb = Fb.wrap ~clock:c ~rng:(Uksim.Rng.create 7) ~plan:(Fb.plan ()) inner in
  let dev, release, outstanding = held (Fb.dev fb) in
  let t = ok (St.format ~clock:c ~journal_sectors:3 dev) in
  release max_int;
  set t "base" "b";
  ignore (commit t);
  release 0;
  Fb.crash_after_writes fb arm;
  let flips = counting "checkpoints" in
  let join keys =
    List.iter (fun k -> set t k (k ^ "-value")) keys;
    let ws = List.init 2 (fun _ -> waiter ()) in
    List.iter (fun (k, _) -> St.commit_group t k) ws;
    ws
  in
  let a = join [ "a1"; "a2" ] in
  ignore (St.reap t);
  let b = join [ "b1"; "b2"; "b3" ] in
  release 1;
  ignore (St.reap t);
  let both = outstanding () = 2 (* a record and a flip *) in
  release 1;
  ignore (St.reap t);
  let flip_a = flips () > 0 in
  release 2;
  ignore (St.reap t);
  Fb.revive fb;
  let outcome ws = List.map (fun (_, got) -> Option.get !got) ws in
  let t' = ok (St.open_ ~clock:c inner) in
  let acked rs keys =
    match rs with
    | Ok h :: _ ->
        Alcotest.(check bool) (Printf.sprintf "arm=%d: head at or past the ack" arm) true
          (reaches t' ~anc:h (St.head t'));
        List.iter
          (fun k ->
            Alcotest.(check (option string)) (Printf.sprintf "arm=%d: %s survives" arm k)
              (Some (k ^ "-value")) (ok (St.get t' k)))
          keys;
        true
    | _ -> false
  in
  let a_ok = acked (outcome a) [ "a1"; "a2" ] in
  let b_ok = acked (outcome b) [ "a1"; "a2"; "b1"; "b2"; "b3" ] in
  Alcotest.(check (option string)) (Printf.sprintf "arm=%d: history intact" arm) (Some "b")
    (ok (St.get t' "base"));
  (a_ok, b_ok, flip_a, both)

let test_flip_crash_matrix () =
  let rec sweep arm ~torn_beside_flip ~outstanding =
    let a_ok, b_ok, flip_a, both = flip_crash_case arm in
    let torn_beside_flip = torn_beside_flip || (a_ok && flip_a && not b_ok) in
    let outstanding = outstanding || both in
    if a_ok && b_ok then (arm, torn_beside_flip, outstanding)
    else sweep (arm + 1) ~torn_beside_flip ~outstanding
  in
  let arms, torn_beside_flip, outstanding = sweep 0 ~torn_beside_flip:false ~outstanding:false in
  Alcotest.(check bool) "a record and a flip were outstanding together" true outstanding;
  Alcotest.(check bool) "some arm tore record B after flip A landed" true torn_beside_flip;
  Alcotest.(check bool) "the sweep crossed both records" true (arms >= 6)

(* The served store over virtio-blk at the smallest replay bound: a flip
   goes out beside most records, and every COMMIT is still answered. *)
let test_served_flips_beside_records () =
  let c = clock () in
  let engine = Uksim.Engine.create c in
  let dev = Ukblock.Virtio_blk.create ~clock:c ~engine ~capacity_sectors:16384 () in
  let t = ok (St.format ~clock:c ~journal_sectors:3 dev) in
  let records = counting "journal_records" and flips = counting "checkpoints" in
  let answered = ref 0 in
  let clients = 8 and rounds = 10 in
  serve_store ~clock:c ~engine t
    (List.init clients (fun i (rpc : rpc) ->
         for r = 0 to rounds - 1 do
           match rpc [ Printf.sprintf "SET c%d-%d v%d" i r r; "COMMIT" ] with
           | [ _; reply ] when status reply = "OK" -> incr answered
           | _ -> ()
         done));
  Alcotest.(check int) "every COMMIT answered OK" (clients * rounds) !answered;
  Alcotest.(check bool)
    (Printf.sprintf "a flip beside most records (%d flips, %d records)" (flips ()) (records ()))
    true
    (2 * flips () > records ());
  let t' = ok (St.open_ ~clock:c dev) in
  for i = 0 to clients - 1 do
    Alcotest.(check (option string)) "durable" (Some "v9")
      (ok (St.get t' (Printf.sprintf "c%d-9" i)))
  done

(* --- the cache holds the live trees ------------------------------------------------ *)

(* A store on a 65,536-sector virtio-blk device. *)
let big_virtio_store ?journal_sectors () =
  let c = clock () in
  let engine = Uksim.Engine.create c in
  let dev = Ukblock.Virtio_blk.create ~clock:c ~engine ~capacity_sectors:65536 () in
  (c, dev, ok (St.format ~clock:c ?journal_sectors dev))

(* An early commit of 512 keys, then 80 group commits of 24 SETs and 2
   DELs each over those keys and 128 new ones, the cache sweeping many
   times on the way. Returns the store, the early commit and its
   bindings, the live bindings, and the sweeps seen (the cache shrank). *)
let long_history () =
  let c, _, t = big_virtio_store () in
  let live = Hashtbl.create 1024 in
  let sweeps = ref 0 and last = ref (St.cached t) in
  let note () =
    if St.cached t < !last then incr sweeps;
    last := St.cached t
  in
  let put k v =
    set t k v;
    Hashtbl.replace live k v;
    note ()
  in
  for i = 0 to 511 do
    put (Printf.sprintf "key%04d" i) (Printf.sprintf "v0.%d" i)
  done;
  let early = commit ~msg:"early" t in
  note ();
  let early_kvs = ok (St.to_list t) in
  let rng = Uksim.Rng.create 0x5eeb in
  for g = 1 to 80 do
    for j = 1 to 24 do
      put (Printf.sprintf "key%04d" (Uksim.Rng.int rng 640)) (Printf.sprintf "v%d.%d" g j)
    done;
    for _ = 1 to 2 do
      let k = Printf.sprintf "key%04d" (Uksim.Rng.int rng 640) in
      ignore (del t k);
      Hashtbl.remove live k;
      note ()
    done;
    let k, got = waiter () in
    St.commit_group t k;
    ignore (St.reap t);
    Uksim.Clock.advance_ns c 30_000.0;
    ignore (St.reap t);
    note ();
    match !got with Some (Ok _) -> () | _ -> Alcotest.failf "group %d not acked" g
  done;
  let live = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) live []) in
  (t, early, early_kvs, live, !sweeps)

(* History is read back from its homes: the early commit's trees left the
   cache, and a checkout of it reads its exact bindings off the medium. *)
let test_history_read_from_medium () =
  let t, early, early_kvs, _, sweeps = long_history () in
  Alcotest.(check bool) (Printf.sprintf "the cache swept (%d times)" sweeps) true (sweeps >= 3);
  let misses = counting "cache_misses" in
  ok (St.checkout t early);
  Alcotest.(check (list (pair string string))) "the early bindings" early_kvs (ok (St.to_list t));
  Alcotest.(check bool) "read from the medium" true (misses () > 0);
  Alcotest.(check string) "its message" "early" (ok (St.commit_info t early)).Tr.msg

(* The sweeps keep every live object: after the same history, GETs of
   every live key are all cache hits, and the cache stays under a sweep
   point that follows the key count, not the history. *)
let test_live_keys_stay_cached () =
  let t, _, _, live, _ = long_history () in
  let misses = counting "cache_misses" in
  List.iter (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (get t k)) live;
  Alcotest.(check int) "no GET missed" 0 (misses ());
  Alcotest.(check bool)
    (Printf.sprintf "%d objects cached, next sweep at %d" (St.cached t) (St.sweep_point t))
    true
    (St.cached t < St.sweep_point t && St.sweep_point t <= max 1024 (4 * List.length live))

(* A write reads the working tree and the head, never the history behind
   them: after 1,000 keys and [n] commits of 10 SETs each, with the cache
   dropped, one SET and its commit take the same cache misses, and the
   same virtual time within 0.1%, for n = 10 and n = 300. *)
let test_write_cost_flat_in_history () =
  let cost n =
    let c, _, t = big_virtio_store () in
    for i = 0 to 999 do
      set t (Printf.sprintf "key%04d" i) "v0"
    done;
    ignore (commit t);
    for g = 1 to n do
      for j = 0 to 9 do
        set t (Printf.sprintf "key%04d" (((g * 37) + (j * 101)) mod 1000)) (Printf.sprintf "v%d" g)
      done;
      ignore (commit t)
    done;
    St.drop_caches t;
    let misses = counting "cache_misses" and at = Uksim.Clock.cycles c in
    set t "key0500" "last";
    ignore (commit t);
    (misses (), Uksim.Clock.cycles c - at)
  in
  let m10, c10 = cost 10 and m300, c300 = cost 300 in
  Alcotest.(check bool) (Printf.sprintf "the write read the medium (%d misses)" m10) true (m10 > 0);
  Alcotest.(check int) "misses after 300 commits as after 10" m10 m300;
  Alcotest.(check bool) (Printf.sprintf "%d cycles after 10 commits, %d after 300" c10 c300) true
    (abs (c300 - c10) * 1000 <= c10)

(* The store against a model over random interleavings of SETs, DELs,
   GETs, bursts of SETs, group and synchronous commits, reaps with and
   without device progress, cache drops and remounts, on a 200-key
   base: every GET reads the model, and after a final remount every
   commit from the head down has at most one parent, and every
   acknowledged commit is the head or its ancestor and checks out to the
   bindings it was built from. *)
type mop =
  | MSet of int
  | MDel of int
  | MGet of int
  | MBurst of int
  | MJoin
  | MSync
  | MReap of bool
  | MDrop
  | MRemount

let mop_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun k -> MSet k) (int_bound 95)); (2, map (fun k -> MDel k) (int_bound 95));
        (4, map (fun k -> MGet k) (int_bound 95)); (2, map (fun n -> MBurst n) (int_range 50 250));
        (3, return MJoin); (1, return MSync); (3, map (fun b -> MReap b) bool);
        (1, return MDrop); (1, return MRemount) ])

let mops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | MSet k -> Printf.sprintf "S%d" k
             | MDel k -> Printf.sprintf "D%d" k
             | MGet k -> Printf.sprintf "G%d" k
             | MBurst n -> Printf.sprintf "B%d" n
             | MJoin -> "J"
             | MSync -> "C"
             | MReap b -> if b then "R+" else "R"
             | MDrop -> "X"
             | MRemount -> "M")
           ops))
    QCheck.Gen.(list_size (int_range 20 80) mop_gen)

(* Cases in which the cache swept. *)
let swept_cases = ref 0

let prop_store_matches_model =
  QCheck.Test.make ~name:"the store reads its model and keeps every acked commit" ~count:40
    mops_arb (fun ops ->
      let c, dev, t0 = big_virtio_store ~journal_sectors:16 () in
      let t = ref t0 in
      let model = Hashtbl.create 256 in
      (* The bindings of every working root seen, by content hash. *)
      let roots = Hashtbl.create 64 in
      let bindings () = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
      let note_root () = Hashtbl.replace roots (St.content_hash !t) (bindings ()) in
      let acked = ref [] in
      let ack = function Ok h -> acked := h :: !acked | Error _ -> () in
      let swept = ref false and last = ref 0 in
      let note_cache () =
        if St.cached !t < !last then swept := true;
        last := St.cached !t
      in
      let key k = Printf.sprintf "m%02d" k in
      let put k v =
        set !t k v;
        Hashtbl.replace model k v;
        note_cache ()
      in
      for i = 0 to 199 do
        put (Printf.sprintf "base%03d" i) (Printf.sprintf "b%d" i)
      done;
      note_root ();
      ignore (commit !t);
      let drain () =
        Uksim.Clock.advance_ns c 30_000.0;
        dev.B.flush ()
      in
      let reads_model = ref true in
      List.iteri
        (fun i op ->
          match op with
          | MSet k ->
              put (key k) (Printf.sprintf "v%d" i);
              note_root ()
          | MDel k ->
              ignore (del !t (key k));
              Hashtbl.remove model (key k);
              note_cache ();
              note_root ()
          | MGet k -> if get !t (key k) <> Hashtbl.find_opt model (key k) then reads_model := false
          | MBurst n ->
              for j = 1 to n do
                put (key (((i * 7) + (j * 13)) mod 96)) (Printf.sprintf "v%d.%d" i j)
              done;
              note_root ()
          | MJoin -> St.commit_group !t ack
          | MSync -> acked := commit !t :: !acked
          | MReap progress ->
              if progress then Uksim.Clock.advance_ns c 30_000.0;
              ignore (St.reap !t);
              note_cache ()
          | MDrop ->
              St.drop_caches !t;
              last := St.cached !t
          | MRemount ->
              drain ();
              t := ok (St.open_ ~clock:c dev);
              last := St.cached !t;
              Hashtbl.reset model;
              (match Hashtbl.find_opt roots (St.content_hash !t) with
              | Some kvs -> List.iter (fun (k, v) -> Hashtbl.replace model k v) kvs
              | None -> reads_model := false))
        ops;
      for _ = 1 to 3 do
        Uksim.Clock.advance_ns c 30_000.0;
        ignore (St.reap !t)
      done;
      if !swept then incr swept_cases;
      drain ();
      let t' = ok (St.open_ ~clock:c dev) in
      let head = St.head t' in
      let durable h =
        reaches t' ~anc:h head
        &&
        match St.commit_info t' h with
        | Error _ -> false
        | Ok { Tr.root; _ } -> (
            match (Hashtbl.find_opt roots root, St.checkout t' h) with
            | Some kvs, Ok () -> St.to_list t' = Ok kvs
            | _ -> false)
      in
      let rec single_parents h =
        h = St.null
        ||
        match St.commit_info t' h with
        | Ok { Tr.parents = []; _ } -> true
        | Ok { Tr.parents = [ p ]; _ } -> single_parents p
        | Ok _ | Error _ -> false
      in
      !reads_model && single_parents head && List.for_all durable !acked)

let test_store_matches_model () =
  swept_cases := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x5ee9 |]) prop_store_matches_model;
  Alcotest.(check bool)
    (Printf.sprintf "the cache swept in most cases (%d of 40)" !swept_cases)
    true
    (!swept_cases > 20)

(* A SET on a cold path while a record is in flight misses, waits the
   record out and publishes it while the SET's new blob is not yet in
   any tree. With the cache one object short of the sweep point, that
   blob brings it to the point: a sweep in the publish would drop the
   blob. The sweep waits for the end of the SET, so the value stays
   readable and commits durably. *)
let test_cold_set_beside_flight_at_sweep_point () =
  let c, dev, t = big_virtio_store () in
  let keys = List.init 2000 (Printf.sprintf "key%04d") in
  List.iter (fun k -> set t k ("v-" ^ k)) keys;
  ignore (commit t);
  St.drop_caches t;
  (* The trie takes a key's digest nibbles low first: no key read below
     has a low nibble of 15, so the root's child 15 stays cold. *)
  let low_nibble k = Ukvfs.Digest.string_hash k land 15 in
  let warm = List.filter (fun k -> low_nibble k <> 15) keys in
  let cold = List.find (fun k -> low_nibble k = 15) keys in
  set t (List.hd warm) "dirty";
  (* Reads fill the cache to two objects short of the sweep point, the
     head commit (which the COMMIT reads) among them; one that overshoots
     is undone by dropping the cache and replaying the reads kept, which
     load the same objects again. *)
  let target = St.sweep_point t - 2 in
  let kept = ref [] in
  let replay () =
    ignore (ok (St.commit_info t (St.head t)));
    List.iter (fun k -> ignore (get t k)) (List.rev !kept)
  in
  replay ();
  List.iter
    (fun k ->
      if St.cached t < target then begin
        ignore (get t k);
        if St.cached t <= target then kept := k :: !kept
        else begin
          St.drop_caches t;
          replay ()
        end
      end)
    (List.tl warm);
  Alcotest.(check int) "two short of the sweep point" target (St.cached t);
  let k, got = waiter () in
  St.commit_group t k;
  Alcotest.(check bool) "a record in flight" true (St.reap t && !got = None);
  Alcotest.(check int) "one short, with the commit object" (St.sweep_point t - 1) (St.cached t);
  let head0 = St.head t and misses = counting "cache_misses" in
  set t cold "fresh";
  Alcotest.(check bool) "the SET missed" true (misses () > 0);
  Alcotest.(check bool) "and waited the record out" true (St.head t <> head0);
  Alcotest.(check (option string)) "readable" (Some "fresh") (get t cold);
  ignore (St.reap t);
  (match !got with Some (Ok _) -> () | _ -> Alcotest.fail "COMMIT not acked");
  ignore (commit t);
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check (option string)) "durable" (Some "fresh") (ok (St.get t' cold))

(* --- the frame writer against Printf ---------------------------------------------- *)

(* The on-disk grammar as Printf writes it: the store's encoder before
   its cursor writer, kept as the reference the writer must match byte
   for byte. [loc] locates child refs. *)
module Ref = struct
  let hex s =
    let b = Buffer.create (String.length s * 2) in
    String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
    Buffer.contents b

  let body ~loc (o : Tr.obj) =
    let b = Buffer.create 128 in
    (match o with
    | Tr.Blob v -> Buffer.add_string b v
    | Tr.Node (Tr.Leaf entries) ->
        Buffer.add_string b (Printf.sprintf "L %d\n" (List.length entries));
        List.iter
          (fun (k, vh) ->
            let addr, len = loc vh in
            Buffer.add_string b (Printf.sprintf "%016x %x %d %s\n" vh addr len (hex k)))
          entries
    | Tr.Node (Tr.Branch (n, kids)) ->
        Buffer.add_string b (Printf.sprintf "T %d %d\n" n (List.length kids));
        List.iter
          (fun (nb, ch) ->
            let addr, len = loc ch in
            Buffer.add_string b (Printf.sprintf "%d %016x %x %d\n" nb ch addr len))
          kids
    | Tr.Commit { root; parents; msg } ->
        let raddr, rlen = loc root in
        Buffer.add_string b
          (Printf.sprintf "C %016x %x %d %d %s\n" root raddr rlen (List.length parents) (hex msg));
        List.iter
          (fun p ->
            let paddr, plen = loc p in
            Buffer.add_string b (Printf.sprintf "%016x %x %d\n" p paddr plen))
          parents);
    Buffer.contents b

  let kind = function Tr.Blob _ -> 'b' | Tr.Node _ -> 'n' | Tr.Commit _ -> 'c'

  let frame ~loc h o ~addr =
    let body = body ~loc o in
    Printf.sprintf "o %016x %c %08d %08x\n%s" h (kind o) (String.length body) addr body

  let line core = Printf.sprintf "%s %016x\n" core (Ukvfs.Digest.fnv_string core)

  (* [line] at the start of a zeroed sector. *)
  let sector ss line = line ^ String.make (ss - String.length line) '\000'

  (* A record: header sector, payload sectors, trailer sector. *)
  let record ss ~seq ~ch payload =
    let plen = String.length payload in
    let psec = max 1 ((plen + ss - 1) / ss) in
    sector ss (line (Printf.sprintf "%s %d %d %016x" St.jr_magic seq psec ch))
    ^ payload
    ^ String.make ((psec * ss) - plen) '\000'
    ^ sector ss
        (line
           (Printf.sprintf "%s %d %d %016x" St.jc_magic seq plen
              (Ukvfs.Digest.string_hash payload)))

  let slot ss (epoch, jcap, head, haddr, hlen, aseq, pos) =
    sector ss
      (line
         (Printf.sprintf "%s %d %d %016x %x %d %d %d" St.slot_magic epoch jcap head haddr hlen aseq
            pos))
end

(* Hashes, addresses and lengths with their edge values: hashes 0 and
   max_int, addresses 0 and max_addr, lengths 0. *)
let hash_gen = QCheck.Gen.(oneof [ oneofl [ 0; max_int ]; map abs int ])
let addr_gen = QCheck.Gen.(oneof [ oneofl [ 0; St.max_addr ]; int_bound St.max_addr ])
let len_gen = QCheck.Gen.(oneof [ return 0; small_nat; int_bound 99_999_999 ])

(* An object, and its child refs as (hash, address, length). *)
let obj_gen =
  let open QCheck.Gen in
  let child = triple hash_gen addr_gen len_gen in
  let upto n = string_size ~gen:char (int_bound n) in
  oneof
    [
      map (fun v -> (Tr.Blob v, [])) (upto 300);
      map
        (fun es ->
          (Tr.Node (Tr.Leaf (List.map (fun (k, (h, _, _)) -> (k, h)) es)), List.map snd es))
        (list_size (int_bound 8) (pair (upto 24) child));
      map2
        (fun n ks ->
          (Tr.Node (Tr.Branch (n, List.map (fun (nb, (h, _, _)) -> (nb, h)) ks)), List.map snd ks))
        (oneof [ small_nat; int ])
        (list_size (int_bound 16) (pair (int_bound 15) child));
      map3
        (fun ((root, _, _) as r) ps msg ->
          (Tr.Commit { root; parents = List.map (fun (h, _, _) -> h) ps; msg }, r :: ps))
        child (list_size (int_bound 2) child) (upto 40);
    ]

let frame_case_gen = QCheck.Gen.triple obj_gen hash_gen addr_gen

(* Where [refs] locates child [c]: at its first ref, since a child named
   twice is written with one location. *)
let located refs c =
  match List.find_opt (fun (h, _, _) -> h = c) refs with Some (_, a, l) -> (a, l) | None -> (0, 0)

let prop_frame_writer_matches_printf =
  QCheck.Test.make ~name:"frame writer matches the Printf encoder" ~count:1000
    (QCheck.make
       ~print:(fun ((o, refs), h, addr) ->
         Printf.sprintf "h=%x addr=%x %S" h addr (Ref.frame ~loc:(located refs) h o ~addr))
       frame_case_gen)
    (fun ((o, refs), h, addr) ->
      let loc = located refs in
      let frame = St.encode_frame ~loc h o ~addr in
      let refs = List.map (fun (c, _, _) -> let a, l = loc c in (c, a, l)) refs in
      frame = Ref.frame ~loc h o ~addr
      && St.decode_frame frame 0 = Some (h, o, addr, String.length frame, refs))

(* Every record a store writes, and its root slot, is the reference
   assembly of its frames: keys, values and messages of arbitrary bytes,
   several commits, and a checkpoint. Child refs are located from the
   frames themselves, not from what the writer recorded. *)
let prop_records_match_printf =
  let upto n = QCheck.Gen.(string_size ~gen:char (int_range 0 n)) in
  QCheck.Test.make ~name:"records and root slots match the Printf assembly" ~count:40
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 4)
           (pair (list_size (int_range 1 30) (pair (upto 12) (upto 600))) (upto 40))))
    (fun commits ->
      let _, dev, t = fresh () in
      List.iter
        (fun (kvs, msg) ->
          List.iter (fun (k, v) -> set t k v) kvs;
          ignore (St.commit t ~msg ()))
        commits;
      ok (St.checkpoint t);
      let ss = dev.B.sector_size in
      let records = log_records dev ~upto:(St.log_head t) in
      let homes = Hashtbl.create 64 in
      List.iter
        (fun (h, _, addr, flen, _) -> Hashtbl.replace homes h (addr, flen))
        (log_frames dev ~upto:(St.log_head t));
      let loc h = if h = St.null then (0, 0) else Hashtbl.find homes h in
      List.for_all
        (fun ((lba, psec) as record) ->
          let seq, _, ch = Option.get (St.parse_jheader (read_sectors dev ~lba ~sectors:1)) in
          let frame (h, o, addr, _, _) = Ref.frame ~loc h o ~addr in
          let payload = String.concat "" (List.map frame (record_frames dev record)) in
          Bytes.to_string (read_sectors dev ~lba ~sectors:(2 + psec))
          = Ref.record ss ~seq ~ch payload)
        records
      && List.for_all
           (fun lba ->
             let sec = read_sectors dev ~lba ~sectors:1 in
             match St.parse_slot sec with
             | Some fields -> Bytes.to_string sec = Ref.slot ss fields
             | None -> false)
           [ 0; 1 ])

(* --- hostile bytes ------------------------------------------------------------------ *)

(* A committed image with both kinds of record: some folded by a
   checkpoint, so cold reads navigate them by address, and some after
   it, which mount replays. Returns its bytes and its sectors. *)
let hostile_image =
  lazy
    (let _, dev, t = fresh ~capacity_sectors:256 () in
     for i = 1 to 12 do
       set t (Printf.sprintf "key-%02d" i) (String.make (i * 37) (Char.chr (96 + i)));
       if i mod 3 = 0 then ignore (commit ~msg:(Printf.sprintf "c%d" i) t);
       if i = 6 then ok (St.checkpoint t)
     done;
     let used = St.log_head t in
     (read_sectors dev ~lba:0 ~sectors:used, used))

(* Random byte overwrites of that image: slots, headers, payloads and
   trailers alike, biased to each sector's first line. *)
let flips_arb =
  QCheck.make
    ~print:(fun fl ->
      String.concat " " (List.map (fun (s, o, b) -> Printf.sprintf "%d:%d=%02x" s o b) fl))
    QCheck.Gen.(
      list_size (int_range 1 4)
        (triple (int_bound 10_000) (oneof [ int_bound 80; int_bound 511 ]) (int_bound 255)))

let prop_mount_total =
  QCheck.Test.make ~name:"mount and reads never raise on hostile bytes" ~count:300 flips_arb
    (fun fl ->
      let image, used = Lazy.force hostile_image in
      let c = clock () in
      let dev = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:256 () in
      let img = Bytes.copy image in
      List.iter
        (fun (s, o, b) -> Bytes.set img ((s mod used * dev.B.sector_size) + o) (Char.chr b))
        fl;
      write_sectors dev ~lba:0 img;
      try
        (match St.open_ ~clock:c dev with
        | Error _ -> ()
        | Ok t ->
            for i = 1 to 12 do
              ignore (St.get t (Printf.sprintf "key-%02d" i))
            done;
            ignore (St.to_list t);
            ignore (St.commit_info t (St.head t)));
        true
      with e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* --- space ---------------------------------------------------------------------------- *)

(* Each object is written once, in the record that made it durable, so
   the log fills only as fast as records are written. *)
let test_space () =
  let _, _, t = fresh ~journal_sectors:256 ~capacity_sectors:16384 () in
  let rng = Uksim.Rng.create 19 in
  for i = 1 to 500 do
    for _ = 1 to 16 do
      set t
        (Printf.sprintf "key%04d" (Uksim.Rng.int rng 1024))
        (Printf.sprintf "value-%d" (Uksim.Rng.int rng 1_000_000))
    done;
    match St.commit t () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "commit %d: %s" i (Ukvfs.Fs.errno_to_string e)
  done

(* Frames carry their own byte address in a fixed-width field of 8 hex
   digits. Past 99,999,999, where 8 decimal digits would overflow it
   (~195k sectors), it still round-trips, and [format] refuses a device
   whose last byte address would not fit. *)
let test_frame_address_width () =
  let c, dev, _ = fresh () in
  let o = Tr.Blob "v" in
  let h = Tr.hash_of_obj o in
  List.iter
    (fun addr ->
      let frame = St.encode_frame ~loc:(fun _ -> (0, 0)) h o ~addr in
      Alcotest.(check int) (Printf.sprintf "%d: fixed-width header" addr) (St.frame_header + 1)
        (String.length frame);
      Alcotest.(check bool) (Printf.sprintf "%d: same object, address and length" addr) true
        (St.decode_frame frame 0 = Some (h, o, addr, String.length frame, [])))
    [ 99_999_999; 100_000_000; St.max_addr ];
  let sized n = { dev with B.capacity_sectors = n } in
  let last = (St.max_addr + 1) / dev.B.sector_size in
  Alcotest.(check bool) "largest device formats" true
    (Result.is_ok (St.format ~clock:c (sized last)));
  Alcotest.(check bool) "one sector more is Einval" true
    (St.format ~clock:c (sized (last + 1)) = Error Ukvfs.Fs.Einval)

let test_trace_source_registered () =
  let _, _, t = fresh () in
  set t "k" "v";
  ignore (commit t);
  let snap = Uktrace.Registry.snapshot () in
  Alcotest.(check bool) "ukstore source present" true
    (List.exists
       (fun e ->
         let k = e.Uktrace.Registry.suid in
         String.length k >= 7 && String.sub k 0 7 = "ukstore")
       snap)

let suite =
  [
    ("basic kv", `Quick, test_basic_kv);
    ("commit/checkout", `Quick, test_commit_checkout);
    ("a commit after a checkout forks from it", `Quick, test_commit_after_checkout_forks);
    ("clean commit is no-op", `Quick, test_empty_commit_noop);
    ("remount replays journal", `Quick, test_remount_replays_journal);
    ("remount after checkpoint", `Quick, test_remount_after_checkpoint);
    ("commit after a mount journals only new objects", `Quick,
     test_commit_after_mount_journals_only_new);
    ("content hash across stores", `Quick, test_content_hash_matches_across_stores);
    QCheck_alcotest.to_alcotest prop_commit_checkout_roundtrip;
    QCheck_alcotest.to_alcotest prop_structural_hash_order_independent;
    QCheck_alcotest.to_alcotest prop_delete_restores_hash;
    ("crash matrix", `Quick, test_crash_matrix);
    ("crash on first commit", `Quick, test_crash_on_first_commit);
    ("crash during checkpoint", `Quick, test_crash_during_checkpoint);
    ("checkpoint is one slot write", `Quick, test_checkpoint_is_one_slot_write);
    ("negative frame length is Eio", `Quick, test_negative_frame_length);
    ("recovery deterministic", `Quick, test_recovery_is_deterministic);
    ("journal ring wraps", `Quick, test_journal_ring_wraps_via_checkpoint);
    ("store server on cluster", `Quick, test_store_server_cluster);
    ("fast store replay identical", `Quick, test_store_server_fast_replay_identical);
    ("server survives crash+restart", `Quick, test_store_server_survives_crash_restart);
    ("group commit shares a record", `Quick, test_group_commit_shares_a_record);
    ("cache miss during an in-flight record", `Quick, test_cache_miss_during_flight);
    ("group commit under I/O errors", `Quick, test_group_io_error);
    ("group commit crash matrix", `Quick, test_group_crash_matrix);
    ("group commit loses no acked COMMIT at any crash point", `Quick, test_group_crash_property);
    ("crash matrix with a flip in flight", `Quick, test_flip_crash_matrix);
    ("served store with flips beside records", `Quick, test_served_flips_beside_records);
    ("history is read back from the medium", `Quick, test_history_read_from_medium);
    ("GETs of live keys stay cache hits", `Quick, test_live_keys_stay_cached);
    ("a write's cost does not grow with the history", `Quick, test_write_cost_flat_in_history);
    ("the store reads its model and keeps every acked commit", `Quick,
     test_store_matches_model);
    ("a cold SET beside a record at the sweep point", `Quick,
     test_cold_set_beside_flight_at_sweep_point);
    QCheck_alcotest.to_alcotest prop_frame_writer_matches_printf;
    QCheck_alcotest.to_alcotest prop_records_match_printf;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop_mount_total;
    ("500 commits fit a 16k-sector device", `Quick, test_space);
    ("frame address width", `Quick, test_frame_address_width);
    ("trace source", `Quick, test_trace_source_registered);
  ]
