(* Tests for the §7 security facilities: MPK compartments, the ASan
   allocator wrapper, and HermiTux-style binary compat/rewriting. *)

module Mpk = Ukmpk.Mpk
module Asan = Ukalloc.Asan
module Bin = Uksyscall.Binary
module Shim = Uksyscall.Shim

let clock () = Uksim.Clock.create ()

(* --- MPK ------------------------------------------------------------------ *)

let test_mpk_key_allocation () =
  let m = Mpk.create ~clock:(clock ()) in
  let keys = List.init 15 (fun i -> Mpk.alloc_key m ~name:(Printf.sprintf "c%d" i) ()) in
  Alcotest.(check bool) "15 keys allocatable" true (List.for_all Result.is_ok keys);
  (match Mpk.alloc_key m () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "16th key must fail (hardware limit)");
  match keys with
  | Ok k :: _ -> Alcotest.(check string) "named" "c0" (Mpk.key_name m k)
  | _ -> Alcotest.fail "first key"

let test_mpk_isolation () =
  let c = clock () in
  let m = Mpk.create ~clock:c in
  let key = Result.get_ok (Mpk.alloc_key m ~name:"crypto" ()) in
  Mpk.bind_range m key ~base:0x10000 ~len:8192;
  (* Fresh compartments are inaccessible. *)
  (match Mpk.load m 0x10010 with
  | () -> Alcotest.fail "no-access compartment readable"
  | exception Mpk.Protection_fault { write = false; _ } -> ());
  (* Grant read-only: loads work, stores fault. *)
  Mpk.set_rights m key Mpk.Read_only;
  Mpk.load m 0x10010;
  (match Mpk.store m 0x10010 with
  | () -> Alcotest.fail "read-only compartment writable"
  | exception Mpk.Protection_fault { write = true; _ } -> ());
  (* Default-domain addresses stay accessible throughout. *)
  Mpk.store m 0x90000;
  Alcotest.(check int) "faults counted" 2 (Mpk.faults m)

let test_mpk_binding_rules () =
  let m = Mpk.create ~clock:(clock ()) in
  let a = Result.get_ok (Mpk.alloc_key m ()) in
  let b = Result.get_ok (Mpk.alloc_key m ()) in
  Mpk.bind_range m a ~base:0x4000 ~len:4096;
  Alcotest.check_raises "double binding rejected"
    (Invalid_argument "Mpk.bind_range: page 0x4000 already bound to key 1") (fun () ->
      Mpk.bind_range m b ~base:0x4000 ~len:16);
  Alcotest.(check bool) "key_of_addr" true (Mpk.key_of_addr m 0x4abc = a);
  Mpk.free_key m a;
  Alcotest.(check bool) "unbound after free" true
    (Mpk.key_of_addr m 0x4abc = Mpk.default_key)

let test_mpk_gate () =
  let c = clock () in
  let m = Mpk.create ~clock:c in
  let key = Result.get_ok (Mpk.alloc_key m ~name:"fscomp" ()) in
  Mpk.bind_range m key ~base:0x20000 ~len:4096;
  let gate = Mpk.Gate.create m ~target_key:key in
  (* Inside the gate the compartment is writable; outside it is sealed. *)
  Mpk.Gate.enter gate (fun () -> Mpk.store m 0x20040);
  (match Mpk.store m 0x20040 with
  | () -> Alcotest.fail "sealed after gate exit"
  | exception Mpk.Protection_fault _ -> ());
  (* Exception safety: PKRU restored when the body throws. *)
  (try Mpk.Gate.enter gate (fun () -> failwith "inner") with Failure _ -> ());
  (match Mpk.store m 0x20040 with
  | () -> Alcotest.fail "sealed after exceptional exit"
  | exception Mpk.Protection_fault _ -> ());
  Alcotest.(check int) "crossings" 2 (Mpk.Gate.crossings gate);
  (* Each crossing is 4 WRPKRU writes; the cost is visible on the clock. *)
  Alcotest.(check bool) "wrpkru cycles charged" true
    (Uksim.Clock.cycles c >= 2 * 4 * Mpk.wrpkru_cost)

(* --- ASan ------------------------------------------------------------------ *)

let asan_env () =
  let c = clock () in
  let inner = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 20) ~len:(1 lsl 22) in
  let t = Asan.wrap ~clock:c inner in
  (c, t, Asan.alloc t)

let test_asan_clean_usage () =
  let _, t, a = asan_env () in
  let addr = Option.get (a.Ukalloc.Alloc.malloc 100) in
  Asan.check_write t ~addr ~len:100;
  Asan.check_read t ~addr:(addr + 50) ~len:50;
  a.Ukalloc.Alloc.free addr;
  Alcotest.(check bool) "checks counted" true (Asan.checks_performed t > 0)

let test_asan_overflow () =
  let _, t, a = asan_env () in
  let addr = Option.get (a.Ukalloc.Alloc.malloc 64) in
  match Asan.check_write t ~addr ~len:65 with
  | () -> Alcotest.fail "off-by-one write not caught"
  | exception Asan.Asan (Asan.Heap_buffer_overflow { block; _ }) ->
      Alcotest.(check int) "right block" addr block

let test_asan_underflow () =
  let _, t, a = asan_env () in
  let addr = Option.get (a.Ukalloc.Alloc.malloc 64) in
  match Asan.check_read t ~addr:(addr - 1) ~len:1 with
  | () -> Alcotest.fail "underflow not caught"
  | exception Asan.Asan (Asan.Heap_buffer_overflow _) -> ()

let test_asan_use_after_free () =
  let _, t, a = asan_env () in
  let addr = Option.get (a.Ukalloc.Alloc.malloc 64) in
  a.Ukalloc.Alloc.free addr;
  match Asan.check_read t ~addr ~len:8 with
  | () -> Alcotest.fail "UAF not caught (quarantine failed)"
  | exception Asan.Asan (Asan.Use_after_free _) -> ()

let test_asan_double_free () =
  let _, _, a = asan_env () in
  let addr = Option.get (a.Ukalloc.Alloc.malloc 64) in
  a.Ukalloc.Alloc.free addr;
  match a.Ukalloc.Alloc.free addr with
  | () -> Alcotest.fail "double free not caught"
  | exception Asan.Asan (Asan.Double_free _) -> ()

let test_asan_wild () =
  let _, t, _ = asan_env () in
  match Asan.check_read t ~addr:0xdead0000 ~len:4 with
  | () -> Alcotest.fail "wild access not caught"
  | exception Asan.Asan (Asan.Wild_access _) -> ()

let test_asan_quarantine_eviction () =
  (* Freed blocks are parked: the inner allocator sees no frees until the
     quarantine overflows, then exactly the overflow is released. *)
  let c = clock () in
  let inner = Ukalloc.Tlsf.create ~clock:c ~base:(1 lsl 20) ~len:(1 lsl 22) in
  let t = Asan.wrap ~clock:c ~quarantine:4 inner in
  let a = Asan.alloc t in
  let addrs = List.init 10 (fun _ -> Option.get (a.Ukalloc.Alloc.malloc 64)) in
  let inner_frees () = Uktrace.Source.count inner.Ukalloc.Alloc.source "frees" in
  List.iteri
    (fun i addr ->
      a.Ukalloc.Alloc.free addr;
      if i < 4 then
        Alcotest.(check int) "parked, not released" 0 (inner_frees ()))
    addrs;
  Alcotest.(check int) "overflow released to the inner allocator" 6 (inner_frees ())

let test_asan_randomized_no_false_positives =
  QCheck.Test.make ~name:"asan: valid programs never trip the sanitizer" ~count:50
    QCheck.(list (pair (int_range 1 512) bool))
    (fun ops ->
      let c = Uksim.Clock.create () in
      let inner = Ukalloc.Mimalloc.create ~clock:c ~base:(1 lsl 22) ~len:(1 lsl 24) in
      let t = Asan.wrap ~clock:c inner in
      let a = Asan.alloc t in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          (match a.Ukalloc.Alloc.malloc size with
          | Some addr ->
              Asan.check_write t ~addr ~len:size;
              live := (addr, size) :: !live
          | None -> ());
          if do_free then
            match !live with
            | (addr, size) :: rest ->
                Asan.check_read t ~addr ~len:size;
                a.Ukalloc.Alloc.free addr;
                live := rest
            | [] -> ())
        ops;
      true)

(* --- binary compat / rewriting --------------------------------------------- *)

let sample_binary =
  [
    Bin.Mov (0, 1); Bin.Syscall 39 (* getpid *); Bin.Add (0, 2); Bin.Syscall 1 (* write *);
    Bin.Cmp (0, 1); Bin.Nop; Bin.Syscall 57 (* fork: unsupported *); Bin.Ret;
  ]

let test_binary_roundtrip () =
  List.iter
    (fun insn ->
      match Bin.decode (Bin.encode insn) with
      | Some got when got = insn -> ()
      | Some _ | None -> Alcotest.fail "encode/decode mismatch")
    sample_binary

let test_binary_scan_and_rewrite () =
  let b = Bin.assemble sample_binary in
  Alcotest.(check (list int)) "syscall sites" [ 1; 3; 6 ] (Bin.syscall_sites b);
  let r = Bin.rewrite b in
  Alcotest.(check bool) "marked rewritten" true (Bin.rewritten r);
  Alcotest.(check (list int)) "sites preserved" [ 1; 3; 6 ] (Bin.syscall_sites r);
  Alcotest.(check bool) "original untouched" false (Bin.rewritten b)

let test_binary_execution_costs () =
  let run binary =
    let c = clock () in
    let shim = Shim.create ~clock:c ~mode:Shim.Native_link in
    Shim.register shim ~sysno:39 (fun _ -> Ok 42);
    Shim.register shim ~sysno:1 (fun _ -> Ok 0);
    Bin.execute ~clock:c ~shim binary
  in
  let plain = run (Bin.assemble sample_binary) in
  let rewritten = run (Bin.rewrite (Bin.assemble sample_binary)) in
  Alcotest.(check int) "same instruction count" plain.Bin.instructions
    rewritten.Bin.instructions;
  Alcotest.(check int) "three syscalls each" 3 plain.Bin.syscalls;
  Alcotest.(check int) "fork stubbed as ENOSYS" 1 plain.Bin.enosys;
  (* Trap path costs 84/call, rewritten 4/call: 3 * 80 cycle gap. *)
  Alcotest.(check int) "rewriting saves the trap tax" (3 * 80)
    (plain.Bin.cycles - rewritten.Bin.cycles)

let test_binary_disassembles () =
  let c = clock () in
  let dbg = Ukdebug.Debug.create ~clock:c () in
  Ukdebug.Debug.Disasm.register dbg Ukdebug.Debug.Disasm.zydis_like;
  match Bin.disassemble_with dbg (Bin.assemble sample_binary) with
  | Ok lines ->
      Alcotest.(check int) "one line per insn" (List.length sample_binary) (List.length lines);
      Alcotest.(check string) "syscall rendered" "syscall ; nr=39" (List.nth lines 1)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "mpk: key allocation limit" `Quick test_mpk_key_allocation;
    Alcotest.test_case "mpk: compartment isolation" `Quick test_mpk_isolation;
    Alcotest.test_case "mpk: binding rules" `Quick test_mpk_binding_rules;
    Alcotest.test_case "mpk: call gates" `Quick test_mpk_gate;
    Alcotest.test_case "asan: clean usage" `Quick test_asan_clean_usage;
    Alcotest.test_case "asan: heap overflow" `Quick test_asan_overflow;
    Alcotest.test_case "asan: underflow" `Quick test_asan_underflow;
    Alcotest.test_case "asan: use after free" `Quick test_asan_use_after_free;
    Alcotest.test_case "asan: double free" `Quick test_asan_double_free;
    Alcotest.test_case "asan: wild access" `Quick test_asan_wild;
    Alcotest.test_case "asan: quarantine eviction" `Quick test_asan_quarantine_eviction;
    QCheck_alcotest.to_alcotest test_asan_randomized_no_false_positives;
    Alcotest.test_case "binary: insn roundtrip" `Quick test_binary_roundtrip;
    Alcotest.test_case "binary: scan and rewrite" `Quick test_binary_scan_and_rewrite;
    Alcotest.test_case "binary: trap vs rewritten cost" `Quick test_binary_execution_costs;
    Alcotest.test_case "binary: disassembly via ukdebug" `Quick test_binary_disassembles;
  ]
