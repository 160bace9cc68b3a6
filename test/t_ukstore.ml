(* Tests for ukstore: the canonical merkle trie, journal durability,
   crash recovery (the matrix: a crash at every sector boundary of a
   commit's journal record must recover to exactly the last durable
   commit), three-way merge, and the Resp integration's persistence. *)

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

let test_empty_commit_noop () =
  let _, _, t = fresh () in
  set t "k" "v";
  let c1 = commit t in
  let c2 = commit t in
  Alcotest.(check int) "clean commit is a no-op" c1 c2;
  Alcotest.(check int) "only one journal record" 1 (St.stats t).St.journal_records

(* --- persistence round-trips ----------------------------------------------- *)

let test_remount_replays_journal () =
  let c, dev, t = fresh () in
  set t "a" "1";
  set t "b" "2";
  let h1 = commit t in
  set t "a" "3";
  let h2 = commit t in
  (* No checkpoint: everything lives in the journal only. *)
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "head recovered" h2 (St.head t');
  Alcotest.(check int) "two records replayed" 2 (St.stats t').St.replayed_records;
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
  let t' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "head from slot" h (St.head t');
  Alcotest.(check int) "no journal replay needed" 0 (St.stats t').St.replayed_records;
  (* Cold reads come from the data area and verify structural hashes. *)
  Alcotest.(check (option string)) "cold read" (Some "val-49") (ok (St.get t' "key-07"));
  Alcotest.(check int) "cold reads miss the cache" 0 (St.stats t').St.cache_hits |> ignore;
  Alcotest.(check bool) "misses counted" true ((St.stats t').St.cache_misses > 0)

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

let prop_merge_conflict_free =
  QCheck.Test.make ~name:"merge of disjoint edits is commutative and conflict-free" ~count:40
    QCheck.(pair kv_list_gen kv_list_gen)
    (fun (left, right) ->
      (* Prefix the keys so the two edit sets are disjoint by construction. *)
      let left = List.map (fun (k, v) -> ("l:" ^ k, v)) left in
      let right = List.map (fun (k, v) -> ("r:" ^ k, v)) right in
      let run first second =
        let _, _, t = fresh () in
        set t "base" "b";
        let b = commit t in
        List.iter (fun (k, v) -> set t k v) first;
        let cf = commit t in
        ok (St.checkout t b);
        List.iter (fun (k, v) -> set t k v) second;
        ignore (commit t);
        let h, conflicts = ok (St.merge t cf ()) in
        (h, conflicts, St.content_hash t)
      in
      let h1, n1, r1 = run left right in
      let h2, n2, r2 = run right left in
      n1 = 0 && n2 = 0 && h1 = h2 && r1 = r2)

let prop_merge_idempotent =
  QCheck.Test.make ~name:"re-merging an ancestor is the identity" ~count:40 kv_list_gen
    (fun kvs ->
      let _, _, t = fresh () in
      set t "seed" "s";
      let c1 = commit t in
      List.iter (fun (k, v) -> set t k v) kvs;
      let c2 = commit t in
      let h, conflicts = ok (St.merge t c1 ()) in
      h = c2 && conflicts = 0 && St.head t = c2)

let test_merge_conflict_policy () =
  let _, _, t = fresh () in
  set t "k" "base";
  set t "stable" "s";
  let b = commit t in
  set t "k" "ours";
  let co = commit t in
  ok (St.checkout t b);
  set t "k" "theirs";
  ignore (commit t);
  let _, conflicts = ok (St.merge t co ()) in
  Alcotest.(check int) "one conflict" 1 conflicts;
  (* Winner is decided by blob hash, not by which side merged. *)
  let winner = match get t "k" with Some v -> v | None -> Alcotest.fail "k vanished" in
  Alcotest.(check bool) "winner is one of the contenders" true
    (winner = "ours" || winner = "theirs");
  Alcotest.(check (option string)) "untouched key survives" (Some "s") (get t "stable");
  (* Mirror image: same winner. *)
  let _, _, t2 = fresh () in
  set t2 "k" "base";
  set t2 "stable" "s";
  let b2 = commit t2 in
  set t2 "k" "theirs";
  let ct = commit t2 in
  ok (St.checkout t2 b2);
  set t2 "k" "ours";
  ignore (commit t2);
  let _, c2 = ok (St.merge t2 ct ()) in
  Alcotest.(check int) "mirror conflict" 1 c2;
  Alcotest.(check (option string)) "same winner either way" (Some winner) (get t2 "k")

(* Merges keep landing on a tiny journal ring: whenever a merge record no
   longer fits, merge checkpoints and retries, as commit does. *)
let test_merge_on_full_ring () =
  let _, _, t = fresh ~journal_sectors:12 () in
  set t "base" "b";
  ignore (commit t);
  for i = 1 to 20 do
    let ours = St.head t in
    set t (Printf.sprintf "side-%02d" i) (String.make 100 's');
    let side = commit t in
    ok (St.checkout t ours);
    set t (Printf.sprintf "main-%02d" i) (String.make 100 'm');
    ignore (commit t);
    let _, conflicts = ok (St.merge t side ()) in
    Alcotest.(check int) (Printf.sprintf "merge %d: disjoint edits" i) 0 conflicts
  done;
  Alcotest.(check bool) "merges wrapped the ring" true ((St.stats t).St.checkpoints > 0);
  Alcotest.(check (option string)) "first side edit merged" (Some (String.make 100 's'))
    (get t "side-01");
  Alcotest.(check (option string)) "last main edit kept" (Some (String.make 100 'm'))
    (get t "main-20")

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

let test_crash_during_checkpoint () =
  let c = clock () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let rng = Uksim.Rng.create 7 in
  let fb = Fb.wrap ~clock:c ~rng ~plan:(Fb.plan ()) inner in
  let dev = Fb.dev fb in
  let t = ok (St.format ~clock:c ~journal_sectors:64 dev) in
  for i = 1 to 8 do
    set t (Printf.sprintf "k%d" i) (String.make 600 (Char.chr (64 + i)));
    ignore (commit t)
  done;
  let head = St.head t in
  (* Kill the device partway through checkpoint's data-area writes: the
     journal is already durable, so nothing may be lost. *)
  for arm = 0 to 20 do
    Fb.crash_after_writes fb (arm * 2);
    ignore (St.checkpoint t : (unit, Ukvfs.Fs.errno) result);
    Fb.revive fb;
    let t' = ok (St.open_ ~clock:c inner) in
    Alcotest.(check int)
      (Printf.sprintf "ckpt arm=%d: head survives" arm)
      head (St.head t');
    Alcotest.(check (option string))
      (Printf.sprintf "ckpt arm=%d: data survives" arm)
      (Some (String.make 600 'H'))
      (ok (St.get t' "k8"))
  done

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

(* --- journal ring / checkpoint pressure ------------------------------------ *)

let test_journal_ring_wraps_via_checkpoint () =
  (* A tiny journal forces the Enospc → checkpoint → retry path. *)
  let _, _, t = fresh ~journal_sectors:12 () in
  for i = 1 to 40 do
    set t (Printf.sprintf "k%d" i) (String.make 100 'x');
    ignore (commit t)
  done;
  Alcotest.(check int) "all commits landed" 40 (St.stats t).St.commits;
  Alcotest.(check bool) "checkpoints forced" true ((St.stats t).St.checkpoints > 0);
  Alcotest.(check (option string)) "data intact" (Some (String.make 100 'x')) (get t "k40")

(* --- the served workload ---------------------------------------------------- *)

let test_store_server_cluster () =
  let cl = Ukapps.Cluster.create ~seed:11 ~n:1 () in
  let srvs = Ukapps.Cluster.add_store cl ~transport:Ukapps.Serve.Socket ~keys:64 () in
  let r =
    Ukapps.Cluster.run_load cl ~transport:Ukapps.Serve.Socket ~port:7000 ~connections_per_core:4
      ~requests_per_core:400
      (Ukapps.Store.client ~write_frac:0.5 ~keyspace:128 ~commit_every:50 ())
  in
  Alcotest.(check int) "no protocol errors" 0 r.Ukapps.Load.errors;
  Alcotest.(check int) "all requests answered" 400 r.Ukapps.Load.requests;
  let st = Ukapps.Store.stats srvs.(0) in
  Alcotest.(check int) "server saw them all" 400 st.Ukapps.Store.requests;
  Alcotest.(check bool) "sets happened" true (st.Ukapps.Store.sets > 0);
  Alcotest.(check bool) "commits happened" true (st.Ukapps.Store.commits > 0);
  Alcotest.(check bool) "throughput positive" true (r.Ukapps.Load.rate_per_sec > 0.0)

let test_store_server_fast_replay_identical () =
  let run () =
    let cl = Ukapps.Cluster.create ~seed:23 ~n:2 () in
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

let test_store_server_survives_crash_restart () =
  (* Serve writes against a fault-wrapped device, kill it mid-flight,
     remount: the store must come back to the last acked COMMIT. *)
  let c = clock () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let rng = Uksim.Rng.create 3 in
  let fb = Fb.wrap ~clock:c ~rng ~plan:(Fb.plan ()) inner in
  let t = ok (St.format ~clock:c (Fb.dev fb)) in
  let srv = Ukapps.Store.mk ~clock:c ~commit_every:10 ~store:t () in
  let seen = ref [] in
  (* Drive the server's execute path directly (no network needed to
     exercise persistence semantics). *)
  for i = 0 to 34 do
    let r = Ukapps.Store.execute srv (Printf.sprintf "SET user%d data%d" i i) in
    seen := r :: !seen
  done;
  let durable_head = St.head t in
  Fb.crash_after_writes fb 0;
  (* These writes are acked into the working tree but the device is dead:
     the next auto-commit fails and nothing new becomes durable. *)
  for i = 100 to 120 do
    ignore (Ukapps.Store.execute srv (Printf.sprintf "SET user%d data%d" i i))
  done;
  Fb.revive fb;
  let t' = ok (St.open_ ~clock:c inner) in
  Alcotest.(check int) "recovered to last durable commit" durable_head (St.head t');
  Alcotest.(check (option string)) "committed data present" (Some "data9")
    (ok (St.get t' "user9"));
  Alcotest.(check (option string)) "post-crash writes gone" None (ok (St.get t' "user100"))

(* --- RESP persistence -------------------------------------------------------- *)

let mk_resp ?persist () =
  let c = clock () in
  let engine = Uksim.Engine.create c in
  let sched = Uksched.Sched.create_cooperative ~clock:c ~engine in
  let da, _ = Uknetdev.Loopback.create_pair ~clock:c ~engine () in
  let stack =
    Uknetstack.Stack.create ~clock:c ~engine ~sched ~dev:da
      {
        Uknetstack.Stack.mac = Uknetstack.Addr.Mac.of_int 1;
        ip = Uknetstack.Addr.Ipv4.of_string "10.0.0.1";
        netmask = Uknetstack.Addr.Ipv4.of_string "255.255.255.0";
        gateway = None;
      }
  in
  let alloc = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 24) ~len:(1 lsl 24) in
  Ukapps.Resp_store.create ~clock:c ~sched ~stack ~alloc ?persist ()

let resp_exec s args =
  match Ukapps.Resp_store.execute s args with
  | Ukapps.Resp.Error e -> Alcotest.failf "resp error: %s" e
  | v -> v

let test_resp_persist_restart_replay () =
  let c = clock () in
  let dev = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let st = ok (St.format ~clock:c dev) in
  let s = mk_resp ~persist:st () in
  ignore (resp_exec s [ "SET"; "user:1"; "ada" ]);
  ignore (resp_exec s [ "SET"; "user:2"; "grace" ]);
  ignore (resp_exec s [ "INCR"; "visits" ]);
  ignore (resp_exec s [ "INCR"; "visits" ]);
  ignore (resp_exec s [ "SET"; "tmp"; "gone" ]);
  ignore (resp_exec s [ "DEL"; "tmp" ]);
  let pre_hash = Ukapps.Resp_store.state_hash s in
  let commit_h =
    match Ukapps.Resp_store.persist_commit s with
    | Some h -> h
    | None -> Alcotest.fail "persist_commit returned None"
  in
  (* Acked-but-uncommitted writes must NOT survive the restart. *)
  ignore (resp_exec s [ "SET"; "user:3"; "lost" ]);
  (* "Restart": remount the device and hydrate a fresh server from it. *)
  let st' = ok (St.open_ ~clock:c dev) in
  Alcotest.(check int) "store recovered the commit" commit_h (St.head st');
  let s' = mk_resp ~persist:st' () in
  Alcotest.(check int) "RESP state hash matches pre-crash commit" pre_hash
    (Ukapps.Resp_store.state_hash s');
  Alcotest.(check bool) "replayed value" true
    (Ukapps.Resp_store.execute s' [ "GET"; "user:2" ] = Ukapps.Resp.Bulk "grace");
  Alcotest.(check bool) "INCR state replayed" true
    (Ukapps.Resp_store.execute s' [ "GET"; "visits" ] = Ukapps.Resp.Bulk "2");
  Alcotest.(check bool) "deleted key stayed deleted" true
    (Ukapps.Resp_store.execute s' [ "GET"; "tmp" ] = Ukapps.Resp.Null);
  Alcotest.(check bool) "uncommitted write lost" true
    (Ukapps.Resp_store.execute s' [ "GET"; "user:3" ] = Ukapps.Resp.Null);
  (* And the hydrated server keeps persisting: next epoch works too. *)
  ignore (resp_exec s' [ "SET"; "user:4"; "edsger" ]);
  (match Ukapps.Resp_store.persist_commit s' with
  | Some _ -> ()
  | None -> Alcotest.fail "second epoch commit failed");
  let st'' = ok (St.open_ ~clock:c dev) in
  let s'' = mk_resp ~persist:st'' () in
  Alcotest.(check bool) "second epoch replayed" true
    (Ukapps.Resp_store.execute s'' [ "GET"; "user:4" ] = Ukapps.Resp.Bulk "edsger")

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
    ("clean commit is no-op", `Quick, test_empty_commit_noop);
    ("remount replays journal", `Quick, test_remount_replays_journal);
    ("remount after checkpoint", `Quick, test_remount_after_checkpoint);
    ("content hash across stores", `Quick, test_content_hash_matches_across_stores);
    QCheck_alcotest.to_alcotest prop_commit_checkout_roundtrip;
    QCheck_alcotest.to_alcotest prop_structural_hash_order_independent;
    QCheck_alcotest.to_alcotest prop_delete_restores_hash;
    QCheck_alcotest.to_alcotest prop_merge_conflict_free;
    QCheck_alcotest.to_alcotest prop_merge_idempotent;
    ("merge conflict policy", `Quick, test_merge_conflict_policy);
    ("merge on a full journal ring", `Quick, test_merge_on_full_ring);
    ("crash matrix", `Quick, test_crash_matrix);
    ("crash on first commit", `Quick, test_crash_on_first_commit);
    ("crash during checkpoint", `Quick, test_crash_during_checkpoint);
    ("recovery deterministic", `Quick, test_recovery_is_deterministic);
    ("journal ring wraps", `Quick, test_journal_ring_wraps_via_checkpoint);
    ("store server on cluster", `Quick, test_store_server_cluster);
    ("fast store replay identical", `Quick, test_store_server_fast_replay_identical);
    ("server survives crash+restart", `Quick, test_store_server_survives_crash_restart);
    ("RESP persist restart+replay", `Quick, test_resp_persist_restart_replay);
    ("trace source", `Quick, test_trace_source_registered);
  ]
