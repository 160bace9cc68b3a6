(* Tests for the application layer: RESP codec/store, B-tree, SQL engine,
   HTTP server pieces, webcache, UDP KV store. *)

module Resp = Ukapps.Resp
module Btree = Ukapps.Btree
module Sql = Ukapps.Sql
module Sqldb = Ukapps.Sqldb

let clock () = Uksim.Clock.create ()

let tlsf () =
  Ukalloc.Tlsf.create ~clock:(clock ()) ~base:(1 lsl 24) ~len:(1 lsl 24)

(* --- RESP ------------------------------------------------------------------ *)

let test_resp_encode () =
  Alcotest.(check string) "simple" "+OK\r\n" (Resp.encode (Resp.Simple "OK"));
  Alcotest.(check string) "bulk" "$3\r\nfoo\r\n" (Resp.encode (Resp.Bulk "foo"));
  Alcotest.(check string) "null" "$-1\r\n" (Resp.encode Resp.Null);
  Alcotest.(check string) "integer" ":42\r\n" (Resp.encode (Resp.Integer 42));
  Alcotest.(check string) "command" "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
    (Resp.encode_command [ "GET"; "k" ])

(* The server parses commands with [Resp_store.frame], in place: a
   command cut short waits for its bytes, pipelined commands frame one
   after another, and anything but an array of bulk strings is an
   error. *)

let frame_at s pos = Ukapps.Resp_store.frame (Bytes.of_string s) pos (String.length s)

let test_resp_incremental_parse () =
  let whole = Resp.encode_command [ "SET"; "key"; "value" ] in
  let n = String.length whole in
  for cut = 0 to n - 1 do
    match frame_at (String.sub whole 0 cut) 0 with
    | Ukapps.Serve.Partial -> ()
    | _ -> Alcotest.failf "a command cut at byte %d of %d must wait for the rest" cut n
  done;
  match frame_at whole 0 with
  | Ukapps.Serve.Frame ([ "SET"; "key"; "value" ], next) ->
      Alcotest.(check int) "frame ends at the command's end" n next
  | _ -> Alcotest.fail "parse after completion"

let test_resp_pipeline_parse () =
  let cmds = [ [ "PING" ]; [ "INCR"; "n" ]; [ "SET"; "k"; "" ] ] in
  let buf = Bytes.of_string (String.concat "" (List.map Resp.encode_command cmds)) in
  let limit = Bytes.length buf in
  let pos =
    List.fold_left
      (fun pos cmd ->
        match Ukapps.Resp_store.frame buf pos limit with
        | Ukapps.Serve.Frame (args, next) ->
            Alcotest.(check (list string)) "arguments" cmd args;
            Alcotest.(check int) "frame ends where the next command starts"
              (pos + String.length (Resp.encode_command cmd))
              next;
            next
        | _ -> Alcotest.fail "pipelined command not framed")
      0 cmds
  in
  Alcotest.(check int) "every byte consumed" limit pos;
  match Ukapps.Resp_store.frame buf pos limit with
  | Ukapps.Serve.Partial -> ()
  | _ -> Alcotest.fail "drained"

(* A count is 1-18 decimal digits. A bulk length near max_int once
   overflowed the framer's bounds check and read a negative index, and
   [int_of_string] let "0x2", "+2" and "0_1" through as counts. Each
   count below is tried as the argument count and as a bulk length. *)
let test_resp_protocol_error () =
  let counts =
    List.init 65 (fun k -> string_of_int (max_int - k))
    @ [ string_of_int min_int; "0x3fffffffffffffff"; "0x2"; "+2"; "-1"; "0_1"; "";
        String.make 19 '9' ]
  in
  List.iter
    (fun s ->
      match frame_at s 0 with
      | Ukapps.Serve.Bad reply ->
          Alcotest.(check string) (Printf.sprintf "reply to %S" s) "-ERR Protocol error\r\n" reply
      | _ -> Alcotest.failf "%S accepted" s)
    ([ "!bogus\r\n"; "+OK\r\n"; ":7\r\n"; "*1\r\n:7\r\n"; "*1\r\n$-1\r\n"; "*1\n$1\r\nk\r\n";
       "*1\r\n$1\r\nkX\r\n"; "*65\r\n" ]
    @ List.concat_map
        (fun c -> [ Printf.sprintf "*%s\r\n$1\r\nk\r\n" c; Printf.sprintf "*1\r\n$%s\r\nab\r\n" c ])
        counts)

(* Any command of 1-64 arguments, placed inside a larger buffer as in a
   ring netbuf, frames back to exactly its arguments and ends where its
   encoding ends. *)
let resp_roundtrip_prop =
  QCheck.Test.make ~name:"resp values roundtrip through the parser" ~count:200
    QCheck.(
      triple
        (string_of_size Gen.(int_bound 8))
        (list_of_size Gen.(int_range 1 64) (string_of_size Gen.(int_bound 30)))
        (string_of_size Gen.(int_bound 8)))
    (fun (before, args, after) ->
      let cmd = Resp.encode_command args in
      let pos = String.length before in
      frame_at (before ^ cmd ^ after) pos = Ukapps.Serve.Frame (args, pos + String.length cmd))

(* --- Resp_store semantics (direct execution) -------------------------------- *)

let mk_store () =
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
  Ukapps.Resp_store.create ~clock:c ~sched ~stack ~alloc ()

let test_store_set_get () =
  let s = mk_store () in
  Alcotest.(check bool) "set" true
    (Ukapps.Resp_store.execute s [ "SET"; "k"; "v" ] = Resp.Simple "OK");
  Alcotest.(check bool) "get" true (Ukapps.Resp_store.execute s [ "GET"; "k" ] = Resp.Bulk "v");
  Alcotest.(check bool) "miss" true (Ukapps.Resp_store.execute s [ "GET"; "nope" ] = Resp.Null);
  Alcotest.(check bool) "del" true (Ukapps.Resp_store.execute s [ "DEL"; "k" ] = Resp.Integer 1);
  Alcotest.(check bool) "get after del" true
    (Ukapps.Resp_store.execute s [ "GET"; "k" ] = Resp.Null)

let test_store_incr () =
  let s = mk_store () in
  Alcotest.(check bool) "incr from zero" true
    (Ukapps.Resp_store.execute s [ "INCR"; "n" ] = Resp.Integer 1);
  Alcotest.(check bool) "incr again" true
    (Ukapps.Resp_store.execute s [ "INCR"; "n" ] = Resp.Integer 2);
  ignore (Ukapps.Resp_store.execute s [ "SET"; "s"; "abc" ]);
  match Ukapps.Resp_store.execute s [ "INCR"; "s" ] with
  | Resp.Error _ -> ()
  | _ -> Alcotest.fail "INCR of non-integer must error"

let test_store_lists_and_admin () =
  let s = mk_store () in
  Alcotest.(check bool) "lpush" true
    (Ukapps.Resp_store.execute s [ "LPUSH"; "l"; "a"; "b" ] = Resp.Integer 2);
  (match Ukapps.Resp_store.execute s [ "LRANGE"; "l"; "0"; "-1" ] with
  | Resp.Array [ Resp.Bulk "b"; Resp.Bulk "a" ] -> ()
  | _ -> Alcotest.fail "lrange");
  ignore (Ukapps.Resp_store.execute s [ "SET"; "x"; "1" ]);
  Alcotest.(check bool) "dbsize" true
    (Ukapps.Resp_store.execute s [ "DBSIZE" ] = Resp.Integer 1);
  ignore (Ukapps.Resp_store.execute s [ "FLUSHALL" ]);
  Alcotest.(check int) "flushed" 0 (Ukapps.Resp_store.dbsize s);
  match Ukapps.Resp_store.execute s [ "NOPE" ] with
  | Resp.Error _ -> ()
  | _ -> Alcotest.fail "unknown command"

let test_store_allocator_accounting () =
  let c = clock () in
  let engine = Uksim.Engine.create c in
  let sched = Uksched.Sched.create_cooperative ~clock:c ~engine in
  let da, _ = Uknetdev.Loopback.create_pair ~clock:c ~engine () in
  let stack =
    Uknetstack.Stack.create ~clock:c ~engine ~sched ~dev:da
      { Uknetstack.Stack.mac = Uknetstack.Addr.Mac.of_int 1;
        ip = Uknetstack.Addr.Ipv4.of_string "10.0.0.1";
        netmask = Uknetstack.Addr.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let alloc = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 24) ~len:(1 lsl 24) in
  let s = Ukapps.Resp_store.create ~clock:c ~sched ~stack ~alloc () in
  ignore (Ukapps.Resp_store.execute s [ "SET"; "k"; "hello" ]);
  let live () = int_of_float (Uktrace.Source.level alloc.Ukalloc.Alloc.source "bytes_in_use") in
  Alcotest.(check bool) "value lives in ukalloc memory" true (live () > 0);
  ignore (Ukapps.Resp_store.execute s [ "DEL"; "k" ]);
  Alcotest.(check int) "freed on delete" 0 (live ())

(* --- B-tree ------------------------------------------------------------------ *)

let test_btree_ordered_iteration () =
  let bt = Btree.create ~clock:(clock ()) ~alloc:(tlsf ()) ~order:6 () in
  let keys = [ "pear"; "apple"; "fig"; "mango"; "kiwi"; "date"; "plum" ] in
  List.iter (fun k -> ignore (Btree.insert bt ~key:k ~value:(Bytes.of_string k))) keys;
  let got = ref [] in
  Btree.iter bt (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "sorted iteration" (List.sort compare keys) (List.rev !got);
  Alcotest.(check int) "length" 7 (Btree.length bt)

let test_btree_replace () =
  let bt = Btree.create ~clock:(clock ()) ~alloc:(tlsf ()) () in
  ignore (Btree.insert bt ~key:"k" ~value:(Bytes.of_string "v1"));
  ignore (Btree.insert bt ~key:"k" ~value:(Bytes.of_string "v2"));
  Alcotest.(check int) "no duplicate" 1 (Btree.length bt);
  Alcotest.(check (option string)) "replaced" (Some "v2")
    (Option.map Bytes.to_string (Btree.find bt "k"))

let test_btree_range () =
  let bt = Btree.create ~clock:(clock ()) ~alloc:(tlsf ()) ~order:4 () in
  for i = 0 to 99 do
    ignore (Btree.insert bt ~key:(Printf.sprintf "k%02d" i) ~value:Bytes.empty)
  done;
  let n = ref 0 in
  Btree.iter bt ~min_key:"k10" ~max_key:"k19" (fun _ _ -> incr n);
  Alcotest.(check int) "range scan" 10 !n

let btree_model_prop =
  QCheck.Test.make ~name:"btree agrees with a model map under random ops" ~count:30
    QCheck.(list (pair (int_bound 200) bool))
    (fun ops ->
      let bt = Btree.create ~clock:(clock ()) ~alloc:(tlsf ()) ~order:5 () in
      let module Sm = Map.Make (String) in
      let model = ref Sm.empty in
      List.iter
        (fun (k, ins) ->
          let key = Printf.sprintf "key%03d" k in
          if ins then begin
            let v = Bytes.of_string (string_of_int k) in
            ignore (Btree.insert bt ~key ~value:v);
            model := Sm.add key v !model
          end
          else begin
            let existed = Btree.delete bt key in
            if existed <> Sm.mem key !model then failwith "delete mismatch";
            model := Sm.remove key !model
          end)
        ops;
      Btree.length bt = Sm.cardinal !model
      && Sm.for_all
           (fun k v -> match Btree.find bt k with Some v' -> Bytes.equal v v' | None -> false)
           !model)

(* --- SQL -------------------------------------------------------------------- *)

let test_sql_parse_create () =
  match Sql.parse "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);" with
  | Ok (Sql.Create_table { table = "t"; columns = [ ("id", Sql.Tint); ("name", Sql.Ttext) ] }) ->
      ()
  | Ok _ -> Alcotest.fail "wrong ast"
  | Error e -> Alcotest.fail e

let test_sql_parse_insert_multi () =
  match Sql.parse "INSERT INTO t VALUES (1, 'a'), (2, 'it''s')" with
  | Ok (Sql.Insert { table = "t"; rows = [ [ Sql.Lint 1; Sql.Ltext "a" ]; [ Sql.Lint 2; Sql.Ltext "it's" ] ] })
    ->
      ()
  | Ok _ -> Alcotest.fail "wrong ast"
  | Error e -> Alcotest.fail e

let test_sql_parse_select () =
  (match Sql.parse "SELECT COUNT(*) FROM t WHERE id >= 5" with
  | Ok (Sql.Select { cols = Sql.Count; table = "t"; where = Some { wcol = "id"; wop = Sql.Ge; wval = Sql.Lint 5 } })
    ->
      ()
  | Ok _ -> Alcotest.fail "wrong ast"
  | Error e -> Alcotest.fail e);
  match Sql.parse "select name, id from t" with
  | Ok (Sql.Select { cols = Sql.Cols [ "name"; "id" ]; where = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "case-insensitive keywords"
  | Error e -> Alcotest.fail e

let test_sql_parse_errors () =
  List.iter
    (fun bad ->
      match Sql.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted: %s" bad)
    [ "SELECT"; "INSERT INTO"; "CREATE TABLE t"; "DELETE t"; "SELECT * FROM t WHERE"; "@!#" ]

let mk_db ?journal ?(per_stmt_overhead = 0) () =
  let c = clock () in
  let alloc = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 24) ~len:(1 lsl 26) in
  (c, Sqldb.create ~clock:c ~alloc ?journal ~per_stmt_overhead ())

let exec db q =
  match Sqldb.exec db q with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" q e

let test_sqldb_end_to_end () =
  let _, db = mk_db () in
  ignore (exec db "CREATE TABLE kv (id INTEGER, v TEXT)");
  ignore (exec db "INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')");
  (match exec db "SELECT COUNT(*) FROM kv" with
  | Sqldb.Count 3 -> ()
  | _ -> Alcotest.fail "count");
  (match exec db "SELECT v FROM kv WHERE id = 2" with
  | Sqldb.Rows { rows = [ [ Sql.Ltext "two" ] ]; _ } -> ()
  | _ -> Alcotest.fail "where eq");
  (match exec db "SELECT * FROM kv WHERE id > 1" with
  | Sqldb.Rows { rows; _ } -> Alcotest.(check int) "where gt" 2 (List.length rows)
  | _ -> Alcotest.fail "select *");
  (match exec db "DELETE FROM kv WHERE id = 1" with
  | Sqldb.Affected 1 -> ()
  | _ -> Alcotest.fail "delete");
  match exec db "SELECT COUNT(*) FROM kv" with
  | Sqldb.Count 2 -> ()
  | _ -> Alcotest.fail "count after delete"

let test_sqldb_type_errors () =
  let _, db = mk_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER, name TEXT)");
  (match Sqldb.exec db "INSERT INTO t VALUES ('oops', 'x')" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "type mismatch accepted");
  (match Sqldb.exec db "INSERT INTO t VALUES (1)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity mismatch accepted");
  (match Sqldb.exec db "SELECT * FROM missing" with
  | Error e -> Alcotest.(check string) "no such table" "no such table: missing" e
  | Ok _ -> Alcotest.fail "missing table");
  match Sqldb.exec db "SELECT * FROM t WHERE ghost = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown column accepted"

let test_sqldb_journal () =
  let c = clock () in
  let vfs = Ukvfs.Vfs.create ~clock:c in
  ignore (Ukvfs.Vfs.mount vfs ~at:"/" (Ukvfs.Ramfs.create ~clock:c ()));
  let alloc = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 24) ~len:(1 lsl 26) in
  let db = Sqldb.create ~clock:c ~alloc ~journal:(vfs, "/journal") () in
  (match Sqldb.exec db "CREATE TABLE t (id INTEGER)" with Ok _ -> () | Error e -> Alcotest.fail e);
  (match Sqldb.exec db "INSERT INTO t VALUES (42)" with Ok _ -> () | Error e -> Alcotest.fail e);
  match Ukvfs.Vfs.stat vfs "/journal" with
  | Ok { Ukvfs.Fs.size; _ } -> Alcotest.(check bool) "journal grew" true (size > 0)
  | Error _ -> Alcotest.fail "journal file missing"

let test_sqldb_txn_batches_journal () =
  (* One fsync per txn instead of per statement: BEGIN..COMMIT must be
     much cheaper in virtual time than autocommit. *)
  let run in_txn =
    let c = clock () in
    let vfs = Ukvfs.Vfs.create ~clock:c in
    ignore (Ukvfs.Vfs.mount vfs ~at:"/" (Ukvfs.Ramfs.create ~clock:c ()));
    let alloc = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 24) ~len:(1 lsl 26) in
    let db = Sqldb.create ~clock:c ~alloc ~journal:(vfs, "/j") () in
    ignore (Sqldb.exec db "CREATE TABLE t (id INTEGER)");
    let s = Uksim.Clock.start c in
    if in_txn then ignore (Sqldb.exec db "BEGIN");
    for i = 1 to 50 do
      ignore (Sqldb.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
    done;
    if in_txn then ignore (Sqldb.exec db "COMMIT");
    Uksim.Clock.elapsed_ns c s
  in
  Alcotest.(check bool) "txn batching is faster" true (run true < run false)

let test_sqldb_insert_count_60k_shape () =
  (* A scaled-down Fig 17 sanity check: inserts stay O(log n). *)
  let _, db = mk_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER, payload TEXT)");
  for i = 1 to 2000 do
    ignore (exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'row-%d')" i i))
  done;
  match exec db "SELECT COUNT(*) FROM t" with
  | Sqldb.Count 2000 -> ()
  | _ -> Alcotest.fail "2000 rows"

(* --- Webcache / UDP KV -------------------------------------------------------- *)

let test_webcache_backends_agree () =
  let c = clock () in
  let shfs = Ukvfs.Shfs.create ~clock:c in
  let wc_s = Ukapps.Webcache.create ~clock:c (Ukapps.Webcache.Shfs_backed shfs) in
  (match Ukapps.Webcache.populate wc_s ~n_files:10 ~size:256 () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let vfs = Ukvfs.Vfs.create ~clock:c in
  ignore (Ukvfs.Vfs.mount vfs ~at:"/" (Ukvfs.Ramfs.create ~clock:c ()));
  let wc_v = Ukapps.Webcache.create ~clock:c (Ukapps.Webcache.Vfs_backed (vfs, "/")) in
  (match Ukapps.Webcache.populate wc_v ~n_files:10 ~size:256 () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let a = Ukapps.Webcache.fetch wc_s "f3.html" in
  let b = Ukapps.Webcache.fetch wc_v "f3.html" in
  Alcotest.(check bool) "same content from both backends" true
    (match (a, b) with Some x, Some y -> Bytes.equal x y | _ -> false);
  Alcotest.(check bool) "miss on both" true
    (Ukapps.Webcache.fetch wc_s "zz" = None && Ukapps.Webcache.fetch wc_v "zz" = None)

let test_webcache_specialization_wins () =
  let c = clock () in
  let shfs = Ukvfs.Shfs.create ~clock:c in
  let wc_s = Ukapps.Webcache.create ~clock:c (Ukapps.Webcache.Shfs_backed shfs) in
  ignore (Ukapps.Webcache.populate wc_s ~n_files:100 ());
  let vfs = Ukvfs.Vfs.create ~clock:c in
  ignore (Ukvfs.Vfs.mount vfs ~at:"/" (Ukvfs.Ramfs.create ~clock:c ()));
  let wc_v = Ukapps.Webcache.create ~clock:c (Ukapps.Webcache.Vfs_backed (vfs, "/")) in
  ignore (Ukapps.Webcache.populate wc_v ~n_files:100 ());
  let s = Ukapps.Webcache.measure_open wc_s in
  let v = Ukapps.Webcache.measure_open wc_v in
  Alcotest.(check bool)
    (Printf.sprintf "hit: shfs %.0fns vs vfs %.0fns" s.Ukapps.Webcache.hit_ns v.Ukapps.Webcache.hit_ns)
    true
    (v.Ukapps.Webcache.hit_ns > s.Ukapps.Webcache.hit_ns *. 3.0);
  Alcotest.(check bool) "miss also faster" true
    (v.Ukapps.Webcache.miss_ns > s.Ukapps.Webcache.miss_ns *. 2.0)

let test_udp_kv_store () =
  let c = clock () in
  let alloc = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 24) ~len:(1 lsl 24) in
  let st = Ukapps.Udp_kv.create_store ~clock:c ~alloc in
  Ukapps.Udp_kv.store_set st "a" "1";
  Ukapps.Udp_kv.store_set st "a" "2";
  Alcotest.(check (option string)) "last write wins" (Some "2") (Ukapps.Udp_kv.store_get st "a");
  Alcotest.(check int) "size" 1 (Ukapps.Udp_kv.store_size st);
  Alcotest.(check (option string)) "miss" None (Ukapps.Udp_kv.store_get st "zz")

let test_httpd_default_page () =
  Alcotest.(check int) "612-byte page (Fig 13)" 612 (String.length Ukapps.Httpd.default_page)

let suite =
  [
    Alcotest.test_case "resp encoding" `Quick test_resp_encode;
    Alcotest.test_case "resp incremental parse" `Quick test_resp_incremental_parse;
    Alcotest.test_case "resp pipeline parse" `Quick test_resp_pipeline_parse;
    Alcotest.test_case "resp protocol errors" `Quick test_resp_protocol_error;
    QCheck_alcotest.to_alcotest resp_roundtrip_prop;
    Alcotest.test_case "store set/get/del" `Quick test_store_set_get;
    Alcotest.test_case "store incr" `Quick test_store_incr;
    Alcotest.test_case "store lists and admin" `Quick test_store_lists_and_admin;
    Alcotest.test_case "store uses ukalloc" `Quick test_store_allocator_accounting;
    Alcotest.test_case "btree ordered iteration" `Quick test_btree_ordered_iteration;
    Alcotest.test_case "btree replace" `Quick test_btree_replace;
    Alcotest.test_case "btree range scan" `Quick test_btree_range;
    QCheck_alcotest.to_alcotest btree_model_prop;
    Alcotest.test_case "sql: create table" `Quick test_sql_parse_create;
    Alcotest.test_case "sql: multi-row insert" `Quick test_sql_parse_insert_multi;
    Alcotest.test_case "sql: select" `Quick test_sql_parse_select;
    Alcotest.test_case "sql: syntax errors" `Quick test_sql_parse_errors;
    Alcotest.test_case "sqldb end to end" `Quick test_sqldb_end_to_end;
    Alcotest.test_case "sqldb type errors" `Quick test_sqldb_type_errors;
    Alcotest.test_case "sqldb journal" `Quick test_sqldb_journal;
    Alcotest.test_case "sqldb txn batching" `Quick test_sqldb_txn_batches_journal;
    Alcotest.test_case "sqldb 2k inserts" `Quick test_sqldb_insert_count_60k_shape;
    Alcotest.test_case "webcache backends agree" `Quick test_webcache_backends_agree;
    Alcotest.test_case "webcache specialization (Fig 22)" `Quick
      test_webcache_specialization_wins;
    Alcotest.test_case "udp kv store" `Quick test_udp_kv_store;
    Alcotest.test_case "612-byte page" `Quick test_httpd_default_page;
  ]
