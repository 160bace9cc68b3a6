(* Tests for the filesystem layer: ramfs, vfscore, the 9P codec and
   client/server, SHFS. *)

module Fs = Ukvfs.Fs
module Vfs = Ukvfs.Vfs
module Ramfs = Ukvfs.Ramfs
module N = Ukvfs.Ninep
module Nsrv = Ukvfs.Ninep_server
module Ncl = Ukvfs.Ninep_client
module Shfs = Ukvfs.Shfs

let clock () = Uksim.Clock.create ()

let write_file fs path content =
  match fs.Fs.open_file path ~create:true with
  | Error e -> Alcotest.failf "create %s: %s" path (Fs.errno_to_string e)
  | Ok h -> (
      match fs.Fs.write h ~off:0 (Bytes.of_string content) with
      | Error e -> Alcotest.failf "write: %s" (Fs.errno_to_string e)
      | Ok _ -> fs.Fs.close h)

let read_file fs path =
  match fs.Fs.open_file path ~create:false with
  | Error e -> Error e
  | Ok h -> (
      match fs.Fs.stat path with
      | Error e -> Error e
      | Ok { Fs.size; _ } -> (
          match fs.Fs.read h ~off:0 ~len:size with
          | Error e -> Error e
          | Ok data ->
              fs.Fs.close h;
              Ok (Bytes.to_string data)))

let test_ramfs_basic () =
  let fs = Ramfs.create ~clock:(clock ()) () in
  write_file fs "/hello.txt" "contents";
  Alcotest.(check (result string reject)) "read back" (Ok "contents")
    (Result.map_error (fun _ -> "e") (read_file fs "/hello.txt"));
  match fs.Fs.stat "/hello.txt" with
  | Ok { Fs.size = 8; ftype = Fs.Regular } -> ()
  | Ok _ -> Alcotest.fail "wrong stat"
  | Error e -> Alcotest.fail (Fs.errno_to_string e)

let test_ramfs_dirs () =
  let fs = Ramfs.create ~clock:(clock ()) () in
  (match fs.Fs.mkdir "/sub" with Ok () -> () | Error e -> Alcotest.fail (Fs.errno_to_string e));
  write_file fs "/sub/a" "A";
  write_file fs "/sub/b" "B";
  (match fs.Fs.readdir "/sub" with
  | Ok names -> Alcotest.(check (list string)) "listing" [ "a"; "b" ] names
  | Error e -> Alcotest.fail (Fs.errno_to_string e));
  (match fs.Fs.unlink "/sub" with
  | Error Fs.Eexist -> ()
  | Error e -> Alcotest.failf "wrong errno: %s" (Fs.errno_to_string e)
  | Ok () -> Alcotest.fail "non-empty dir removed");
  (match fs.Fs.unlink "/sub/a" with Ok () -> () | Error _ -> Alcotest.fail "unlink a");
  match fs.Fs.stat "/sub/a" with
  | Error Fs.Enoent -> ()
  | _ -> Alcotest.fail "a still present"

let test_ramfs_errors () =
  let fs = Ramfs.create ~clock:(clock ()) () in
  (match fs.Fs.open_file "/missing" ~create:false with
  | Error Fs.Enoent -> ()
  | _ -> Alcotest.fail "expected ENOENT");
  (match fs.Fs.read 999 ~off:0 ~len:1 with
  | Error Fs.Ebadf -> ()
  | _ -> Alcotest.fail "expected EBADF");
  write_file fs "/f" "x";
  match fs.Fs.open_file "/f/oops" ~create:false with
  | Error Fs.Enotdir -> ()
  | _ -> Alcotest.fail "expected ENOTDIR"

let test_ramfs_capacity () =
  let fs = Ramfs.create ~clock:(clock ()) ~capacity:100 () in
  match fs.Fs.open_file "/big" ~create:true with
  | Error _ -> Alcotest.fail "create"
  | Ok h -> (
      match fs.Fs.write h ~off:0 (Bytes.make 200 'x') with
      | Error Fs.Enospc -> ()
      | _ -> Alcotest.fail "expected ENOSPC")

let test_ramfs_sparse_write () =
  let fs = Ramfs.create ~clock:(clock ()) () in
  write_file fs "/s" "abc";
  (match fs.Fs.open_file "/s" ~create:false with
  | Error _ -> Alcotest.fail "open"
  | Ok h -> (
      match fs.Fs.write h ~off:5 (Bytes.of_string "z") with
      | Ok 1 -> (
          match fs.Fs.read h ~off:0 ~len:10 with
          | Ok data -> Alcotest.(check string) "zero filled" "abc\000\000z" (Bytes.to_string data)
          | Error _ -> Alcotest.fail "read")
      | _ -> Alcotest.fail "sparse write"))

(* --- vfscore --------------------------------------------------------------- *)

let test_vfs_mounts () =
  let c = clock () in
  let v = Vfs.create ~clock:c in
  let root = Ramfs.create ~clock:c () in
  let data = Ramfs.create ~clock:c () in
  (match Vfs.mount v ~at:"/" root with Ok () -> () | Error _ -> Alcotest.fail "mount /");
  (match Vfs.mount v ~at:"/data" data with Ok () -> () | Error _ -> Alcotest.fail "mount /data");
  (match Vfs.mount v ~at:"/data" data with
  | Error Fs.Eexist -> ()
  | _ -> Alcotest.fail "duplicate mount");
  (* Longest prefix wins. *)
  (match Vfs.open_file v "/data/f" ~create:true () with
  | Ok fd -> (
      ignore (Vfs.write v fd (Bytes.of_string "in-data"));
      ignore (Vfs.close v fd);
      match data.Fs.stat "/f" with
      | Ok { Fs.size = 7; _ } -> ()
      | _ -> Alcotest.fail "file should live on the /data fs")
  | Error e -> Alcotest.failf "open: %s" (Fs.errno_to_string e));
  match root.Fs.stat "/f" with
  | Error Fs.Enoent -> ()
  | _ -> Alcotest.fail "file leaked to root fs"

let test_vfs_fd_semantics () =
  let c = clock () in
  let v = Vfs.create ~clock:c in
  ignore (Vfs.mount v ~at:"/" (Ramfs.create ~clock:c ()));
  let fd = Result.get_ok (Vfs.open_file v "/f" ~create:true ()) in
  ignore (Vfs.write v fd (Bytes.of_string "hello "));
  ignore (Vfs.write v fd (Bytes.of_string "world"));
  ignore (Vfs.lseek v fd 0);
  (match Vfs.read v fd ~len:32 with
  | Ok data -> Alcotest.(check string) "offset advances" "hello world" (Bytes.to_string data)
  | Error _ -> Alcotest.fail "read");
  (match Vfs.pread v fd ~off:6 ~len:5 with
  | Ok data -> Alcotest.(check string) "pread" "world" (Bytes.to_string data)
  | Error _ -> Alcotest.fail "pread");
  Alcotest.(check int) "fd table" 1 (Vfs.open_fds v);
  ignore (Vfs.close v fd);
  Alcotest.(check int) "fd closed" 0 (Vfs.open_fds v);
  match Vfs.read v fd ~len:1 with
  | Error Fs.Ebadf -> ()
  | _ -> Alcotest.fail "stale fd accepted"

let test_vfs_dentry_cache () =
  let c = clock () in
  let v = Vfs.create ~clock:c in
  ignore (Vfs.mount v ~at:"/" (Ramfs.create ~clock:c ()));
  let fd = Result.get_ok (Vfs.open_file v "/cached" ~create:true ()) in
  ignore (Vfs.close v fd);
  let misses0 = Vfs.dentry_misses v in
  ignore (Vfs.stat v "/cached");
  ignore (Vfs.stat v "/cached");
  Alcotest.(check int) "resolutions hit the cache" misses0 (Vfs.dentry_misses v);
  Alcotest.(check bool) "hits recorded" true (Vfs.dentry_hits v >= 2)

(* --- 9P ---------------------------------------------------------------------- *)

let ninep_examples =
  [
    N.Tversion { msize = 8192; version = "9P2000" };
    N.Rversion { msize = 8192; version = "9P2000" };
    N.Tattach { fid = 0; uname = "root"; aname = "/" };
    N.Rattach (N.qid_dir 1);
    N.Twalk { fid = 0; newfid = 1; wnames = [ "a"; "b"; "c" ] };
    N.Rwalk [ N.qid_dir 2; N.qid_file 3 ];
    N.Topen { fid = 1; mode = 2 };
    N.Ropen { q = N.qid_file 3; iounit = 8192 };
    N.Tcreate { fid = 1; name = "new.txt"; perm = 0o644; mode = 2 };
    N.Tread { fid = 1; offset = 4096; count = 1024 };
    N.Rread (Bytes.of_string "some file data");
    N.Twrite { fid = 1; offset = 0; data = Bytes.of_string "payload" };
    N.Rwrite 7;
    N.Tclunk 1;
    N.Rclunk;
    N.Tremove 2;
    N.Rremove;
    N.Tstat 1;
    N.Rstat { name = "f"; length = 123; is_dir = false };
    N.Rerror "ENOENT";
  ]

let test_ninep_codec_examples () =
  List.iter
    (fun body ->
      let raw = N.encode { tag = 42; body } in
      match N.decode raw with
      | Error e -> Alcotest.failf "%s: %s" (N.msg_name body) e
      | Ok { tag; body = got } ->
          Alcotest.(check int) "tag preserved" 42 tag;
          Alcotest.(check string) "same constructor" (N.msg_name body) (N.msg_name got))
    ninep_examples

let ninep_rw_roundtrip_prop =
  QCheck.Test.make ~name:"9p read/write messages roundtrip" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 500)) (int_bound 100000))
    (fun (data, offset) ->
      let body = N.Twrite { fid = 7; offset; data = Bytes.of_string data } in
      match N.decode (N.encode { tag = 1; body }) with
      | Ok { body = N.Twrite { fid = 7; offset = o; data = d }; _ } ->
          o = offset && Bytes.to_string d = data
      | Ok _ | Error _ -> false)

let test_ninep_truncated () =
  let raw = N.encode { tag = 1; body = N.Tclunk 3 } in
  let cut = Bytes.sub raw 0 (Bytes.length raw - 2) in
  match N.decode cut with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated message accepted"

let mk_9p_env () =
  let guest = clock () in
  let host = Ramfs.create ~clock:(clock ()) () in
  write_file host "/motd" "welcome to the host share";
  ignore (host.Fs.mkdir "/dir");
  write_file host "/dir/inner" "nested";
  let server = Nsrv.create ~backing:host in
  let transport = Ncl.Transport.virtio_9p ~clock:guest ~server in
  match Ncl.create ~transport with
  | Error e -> Alcotest.failf "9p attach: %s" e
  | Ok fs -> (guest, host, transport, fs)

let test_ninep_end_to_end_read () =
  let _, _, _, fs = mk_9p_env () in
  Alcotest.(check (result string reject)) "read over 9p" (Ok "welcome to the host share")
    (Result.map_error (fun _ -> "e") (read_file fs "/motd"));
  match fs.Fs.stat "/dir" with
  | Ok { Fs.ftype = Fs.Directory; _ } -> ()
  | _ -> Alcotest.fail "dir stat"

let test_ninep_end_to_end_write () =
  let _, host, _, fs = mk_9p_env () in
  write_file fs "/fresh" "written by guest";
  Alcotest.(check (result string reject)) "host sees guest write" (Ok "written by guest")
    (Result.map_error (fun _ -> "e") (read_file host "/fresh"))

let test_ninep_readdir_unlink () =
  let _, _, _, fs = mk_9p_env () in
  (match fs.Fs.readdir "/dir" with
  | Ok [ "inner" ] -> ()
  | Ok l -> Alcotest.failf "bad listing: %s" (String.concat "," l)
  | Error e -> Alcotest.fail (Fs.errno_to_string e));
  (match fs.Fs.unlink "/motd" with Ok () -> () | Error _ -> Alcotest.fail "unlink");
  match fs.Fs.stat "/motd" with
  | Error Fs.Enoent -> ()
  | _ -> Alcotest.fail "still present after remove"

let test_ninep_chunked_io () =
  (* 32KB read = ceil(32K / 8K iounit) read RPCs (Fig 20's scaling). *)
  let guest, _, transport, fs = mk_9p_env () in
  ignore guest;
  write_file fs "/big" (String.make 32768 'b');
  let before = Ncl.Transport.rpcs_sent transport in
  (match read_file fs "/big" with
  | Ok s -> Alcotest.(check int) "full content" 32768 (String.length s)
  | Error _ -> Alcotest.fail "read");
  let read_rpcs = Ncl.Transport.rpcs_sent transport - before in
  (* walk + open + 4 reads (+1 terminating short read) + stat rpcs *)
  Alcotest.(check bool)
    (Printf.sprintf "multiple read RPCs (%d)" read_rpcs)
    true (read_rpcs >= 6)

let test_ninep_latency_scales_with_block () =
  let guest, _, _, fs = mk_9p_env () in
  write_file fs "/blk" (String.make 65536 'c');
  let fd = Result.get_ok (fs.Fs.open_file "/blk" ~create:false) in
  let time len =
    let s = Uksim.Clock.start guest in
    ignore (fs.Fs.read fd ~off:0 ~len);
    Uksim.Clock.elapsed_ns guest s
  in
  let t4k = time 4096 and t32k = time 32768 in
  Alcotest.(check bool)
    (Printf.sprintf "32K (%.0fns) slower than 4K (%.0fns)" t32k t4k)
    true
    (t32k > t4k *. 2.0)

(* --- SHFS --------------------------------------------------------------------- *)

let test_shfs_basics () =
  let c = clock () in
  let s = Shfs.create ~clock:c in
  Shfs.add s ~name:"index.html" (Bytes.of_string "<html>hi</html>");
  Shfs.add s ~name:"logo.png" (Bytes.make 100 'i');
  Alcotest.(check int) "entries" 2 (Shfs.entries s);
  (match Shfs.open_direct s "index.html" with
  | Error _ -> Alcotest.fail "open"
  | Ok h ->
      Alcotest.(check int) "size" 15 (Shfs.size_direct s h);
      (match Shfs.read_direct s h ~off:6 ~len:2 with
      | Ok b -> Alcotest.(check string) "partial read" "hi" (Bytes.to_string b)
      | Error _ -> Alcotest.fail "read");
      Shfs.close_direct s h);
  match Shfs.open_direct s "missing" with
  | Error Fs.Enoent -> ()
  | _ -> Alcotest.fail "expected miss"

let test_shfs_replace () =
  let s = Shfs.create ~clock:(clock ()) in
  Shfs.add s ~name:"x" (Bytes.of_string "v1");
  Shfs.add s ~name:"x" (Bytes.of_string "v2");
  Alcotest.(check int) "replace keeps one entry" 1 (Shfs.entries s);
  match Shfs.open_direct s "x" with
  | Ok h -> Alcotest.(check int) "new size" 2 (Shfs.size_direct s h)
  | Error _ -> Alcotest.fail "open"

let test_shfs_faster_than_vfs () =
  (* The Fig 22 claim: direct SHFS open is several times cheaper than a
     vfscore + ramfs open. *)
  let c = clock () in
  let s = Shfs.create ~clock:c in
  Shfs.add s ~name:"f.html" (Bytes.make 128 'x');
  let v = Vfs.create ~clock:c in
  ignore (Vfs.mount v ~at:"/" (Ramfs.create ~clock:c ()));
  let fd = Result.get_ok (Vfs.open_file v "/f.html" ~create:true ()) in
  ignore (Vfs.close v fd);
  let cost f =
    let sp = Uksim.Clock.start c in
    for _ = 1 to 100 do
      f ()
    done;
    Uksim.Clock.elapsed_cycles c sp
  in
  let shfs_cost =
    cost (fun () ->
        match Shfs.open_direct s "f.html" with Ok h -> Shfs.close_direct s h | Error _ -> ())
  in
  let vfs_cost =
    cost (fun () ->
        match Vfs.open_file v "/f.html" () with Ok fd -> ignore (Vfs.close v fd) | Error _ -> ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "shfs %d vs vfs %d cycles" shfs_cost vfs_cost)
    true
    (vfs_cost > shfs_cost * 3)

let test_shfs_as_fs () =
  let s = Shfs.create ~clock:(clock ()) in
  Shfs.add s ~name:"obj" (Bytes.of_string "via-vfs");
  let fs = Shfs.to_fs s in
  Alcotest.(check (result string reject)) "read through Fs.t" (Ok "via-vfs")
    (Result.map_error (fun _ -> "e") (read_file fs "/obj"));
  match fs.Fs.open_file "/new" ~create:true with
  | Error Fs.Enosys -> ()
  | _ -> Alcotest.fail "shfs is read-only via vfs"

let suite =
  [
    Alcotest.test_case "ramfs basics" `Quick test_ramfs_basic;
    Alcotest.test_case "ramfs directories" `Quick test_ramfs_dirs;
    Alcotest.test_case "ramfs error paths" `Quick test_ramfs_errors;
    Alcotest.test_case "ramfs capacity (ENOSPC)" `Quick test_ramfs_capacity;
    Alcotest.test_case "ramfs sparse writes" `Quick test_ramfs_sparse_write;
    Alcotest.test_case "vfs mounts and prefixes" `Quick test_vfs_mounts;
    Alcotest.test_case "vfs fd semantics" `Quick test_vfs_fd_semantics;
    Alcotest.test_case "vfs dentry cache" `Quick test_vfs_dentry_cache;
    Alcotest.test_case "9p codec examples" `Quick test_ninep_codec_examples;
    QCheck_alcotest.to_alcotest ninep_rw_roundtrip_prop;
    Alcotest.test_case "9p rejects truncation" `Quick test_ninep_truncated;
    Alcotest.test_case "9p end-to-end read" `Quick test_ninep_end_to_end_read;
    Alcotest.test_case "9p end-to-end write" `Quick test_ninep_end_to_end_write;
    Alcotest.test_case "9p readdir and remove" `Quick test_ninep_readdir_unlink;
    Alcotest.test_case "9p chunked io" `Quick test_ninep_chunked_io;
    Alcotest.test_case "9p latency scales with block size (Fig 20)" `Quick
      test_ninep_latency_scales_with_block;
    Alcotest.test_case "shfs basics" `Quick test_shfs_basics;
    Alcotest.test_case "shfs replace" `Quick test_shfs_replace;
    Alcotest.test_case "shfs beats vfs on open (Fig 22)" `Quick test_shfs_faster_than_vfs;
    Alcotest.test_case "shfs as mounted fs" `Quick test_shfs_as_fs;
  ]
