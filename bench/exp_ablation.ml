(* Ablations of design choices called out in DESIGN.md (beyond the
   paper's own figures). *)

open Common
module Nb = Uknetdev.Netbuf
module Nd = Uknetdev.Netdev
module Vn = Uknetdev.Virtio_net
module Wire = Uknetdev.Wire

(* Burst-size sweep for the vhost-user TX path: batching amortizes the
   driver's fixed per-burst work. *)
let abl_batch =
  {
    Bench.id = "abl-batch";
    group = "ablation";
    descr = "ablation: tx burst size vs throughput (vhost-user, 64B)";
    run =
      (fun () ->
        let frames = scaled 40_000 in
        row "%-8s %14s\n" "batch" "Gb/s";
        List.iter
          (fun batch ->
            let clock = Uksim.Clock.create () in
            let engine = Uksim.Engine.create clock in
            let wa, wb = Wire.create_pair ~engine ~bandwidth_gbps:10.0 () in
            Wire.attach_sink wb;
            let dev = Vn.create ~clock ~engine ~backend:Vn.Vhost_user ~wire:wa () in
            let payload = Bytes.make 64 'x' in
            let sent = ref 0 in
            while !sent < frames do
              let n = min batch (frames - !sent) in
              let pkts = Array.init n (fun _ -> Nb.of_bytes payload) in
              (* Fixed per-burst application work that batching amortizes. *)
              Uksim.Clock.advance clock 300;
              let accepted = dev.Nd.tx_burst ~qid:0 pkts in
              if accepted = 0 then Uksim.Clock.advance clock 2000 else sent := !sent + accepted
            done;
            Uksim.Engine.run engine;
            let gbps = float_of_int (Uktrace.Source.count (Wire.source wb) "rx_bytes" * 8) /. Uksim.Clock.ns clock in
            row "%-8d %14.2f\n" batch gbps)
          [ 1; 4; 8; 16; 32; 64 ]);
  }

(* Polling vs interrupt-driven receive for a latency-sensitive consumer. *)
let abl_netmode =
  {
    Bench.id = "abl-netmode";
    group = "ablation";
    descr = "ablation: polling vs interrupt rx under light load";
    run =
      (fun () ->
        let run_mode mode =
          let clock = Uksim.Clock.create () in
          let engine = Uksim.Engine.create clock in
          let wa, wb = Wire.create_pair ~engine ~latency_ns:1000.0 () in
          let dev = Vn.create ~clock ~engine ~backend:Vn.Vhost_net ~wire:wa () in
          let woken = ref 0 in
          dev.Nd.configure_queue ~qid:0
            {
              Nd.rx_path = Nd.Zero_copy;
              mode;
              rx_handler = (if mode = Nd.Interrupt_driven then Some (fun () -> incr woken) else None);
            };
          (* 100 packets, 10us apart: an idle-ish queue. *)
          for i = 1 to 100 do
            Uksim.Engine.at engine (Uksim.Clock.cycles_of_ns (float_of_int i *. 10_000.0))
              (fun () -> Wire.send wb (Nb.of_bytes (Bytes.make 64 'p')))
          done;
          let polls = ref 0 in
          let received = ref 0 in
          while !received < 100 do
            (match mode with
            | Nd.Polling ->
                (* Poll every microsecond of virtual time. *)
                Uksim.Clock.advance clock (Uksim.Clock.cycles_of_ns 1000.0)
            | Nd.Interrupt_driven ->
                (* Sleep until the interrupt side effect shows up. *)
                Uksim.Engine.run
                  ~until:(Uksim.Clock.cycles clock + Uksim.Clock.cycles_of_ns 10_000.0)
                  engine);
            incr polls;
            received := !received + List.length (dev.Nd.rx_burst ~qid:0 ~max:64)
          done;
          (!polls, !woken, Uktrace.Source.count dev.Nd.source "rx_irqs")
        in
        let p_polls, _, _ = run_mode Nd.Polling in
        let i_polls, _, irqs = run_mode Nd.Interrupt_driven in
        row "polling:   %5d wakeups (CPU burned while idle)\n" p_polls;
        row "interrupt: %5d wakeups, %d interrupts (idle CPU reclaimed)\n" i_polls irqs;
        row "=> interrupt mode trades per-packet interrupt cost for idle efficiency\n");
  }

(* Two allocators in one image: bootalloc for boot-time allocations, a
   real allocator for the application (paper §3.2's multi-allocator
   example). *)
let abl_twoalloc =
  {
    Bench.id = "abl-twoalloc";
    group = "ablation";
    descr = "ablation: boot allocator + app allocator vs single buddy";
    run =
      (fun () ->
        let boot_of alloc =
          let cfg = ok (Cfg.make ~app:"app-nginx" ~alloc ~mem_mb:1024 ()) in
          (ok (Vm.boot ~vmm:Vmm.Qemu cfg)).Vm.breakdown.Vmm.guest_ns
        in
        let buddy = boot_of Cfg.Buddy in
        (* Two-allocator build: boot-time allocations from a bump region,
           app heap initialized lazily by TLSF (O(1) init). *)
        let two =
          let clock = Uksim.Clock.create () in
          let reg = Ukalloc.Alloc.Registry.create () in
          let s = Uksim.Clock.start clock in
          let boot_a = Ukalloc.Bootalloc.create ~clock ~base:(1 lsl 20) ~len:(1 lsl 20) in
          Ukalloc.Alloc.Registry.register reg boot_a;
          let app_a =
            Ukalloc.Tlsf.create ~clock ~base:(1 lsl 26) ~len:(Uksim.Units.mib 896)
          in
          Ukalloc.Alloc.Registry.register reg app_a;
          Uksim.Clock.elapsed_ns clock s
        in
        row "single buddy allocator:    boot %8.2f ms\n" (ms buddy);
        row "bootalloc + tlsf combo:    alloc-init %8.4f ms (vs buddy's region walk)\n" (ms two);
        row "=> composing allocators decouples boot latency from runtime allocation quality\n");
  }

(* Dispatch-mode ablation: what binary compatibility costs a syscall-heavy
   workload end to end. *)
let abl_dispatch =
  {
    Bench.id = "abl-dispatch";
    group = "ablation";
    descr = "ablation: syscall dispatch mode vs workload time";
    run =
      (fun () ->
        let n = scaled 200_000 in
        row "%-28s %14s\n" "dispatch" "time for 200k calls";
        List.iter
          (fun (name, mode) ->
            let clock = Uksim.Clock.create () in
            let shim = Uksyscall.Shim.create ~clock ~mode in
            Uksyscall.Shim.register shim ~sysno:0 (fun _ -> Ok 0);
            let s = Uksim.Clock.start clock in
            for _ = 1 to n do
              ignore (Uksyscall.Shim.call shim ~sysno:0 [||])
            done;
            row "%-28s %12.3fms\n" name (ms (Uksim.Clock.elapsed_ns clock s)))
          [
            ("native link (Unikraft)", Uksyscall.Shim.Native_link);
            ("binary compat (OSv-style)", Uksyscall.Shim.Binary_compat);
            ("Linux guest (KPTI)", Uksyscall.Shim.Linux_vm);
          ]);
  }

(* Storage-path specialization: persist 1000 512B journal records
   through three stacks of decreasing height (paper scenario 8 / Fig 4:
   vfscore vs the ukblock API). *)
let abl_block =
  {
    Bench.id = "abl-block";
    group = "ablation";
    descr = "ablation: journal persistence — 9pfs file vs sync ukblock vs batched ukblock";
    run =
      (fun () ->
        let records = 1000 in
        let record = Bytes.make 512 'j' in
        (* (a) through vfscore over 9pfs (the paper's persistent-FS path) *)
        let via_9pfs =
          let host_clock = Uksim.Clock.create () in
          let host = Ukvfs.Ramfs.create ~clock:host_clock () in
          let cfg = ok (Cfg.make ~app:"app-sqlite" ~fs:Cfg.Ninep ~mem_mb:64 ()) in
          let env = ok (Vm.boot ~vmm:Vmm.Qemu ~host_share:host cfg) in
          let vfs = Option.get env.Vm.vfs in
          let fd =
            match Ukvfs.Vfs.open_file vfs "/journal" ~create:true () with
            | Ok fd -> fd
            | Error e -> failwith (Ukvfs.Fs.errno_to_string e)
          in
          let s = Uksim.Clock.start env.Vm.clock in
          for i = 0 to records - 1 do
            ignore (Ukvfs.Vfs.pwrite vfs fd ~off:(i * 512) record)
          done;
          ignore (Ukvfs.Vfs.fsync vfs fd);
          Uksim.Clock.elapsed_ns env.Vm.clock s
        in
        (* (b) virtio-blk, one synchronous request per record *)
        let via_sync =
          let clock = Uksim.Clock.create () in
          let engine = Uksim.Engine.create clock in
          let d = Ukblock.Virtio_blk.create ~clock ~engine () in
          let s = Uksim.Clock.start clock in
          for i = 0 to records - 1 do
            ignore (d.Ukblock.Blockdev.write_sync ~lba:i record)
          done;
          Uksim.Clock.elapsed_ns clock s
        in
        (* (c) virtio-blk, batched submissions of 32 *)
        let via_batch =
          let clock = Uksim.Clock.create () in
          let engine = Uksim.Engine.create clock in
          let d = Ukblock.Virtio_blk.create ~clock ~engine () in
          let s = Uksim.Clock.start clock in
          let submitted = ref 0 and completed = ref 0 in
          while !completed < records do
            if !submitted < records then begin
              let n = min 32 (records - !submitted) in
              let reqs =
                Array.init n (fun k ->
                    Ukblock.Blockdev.Write { lba = !submitted + k; data = record })
              in
              submitted := !submitted + d.Ukblock.Blockdev.submit reqs
            end;
            let got = d.Ukblock.Blockdev.poll_completions ~max:64 in
            completed := !completed + List.length got;
            if got = [] then Uksim.Clock.advance clock 1000
          done;
          Uksim.Clock.elapsed_ns clock s
        in
        row "%-34s %12.2f ms
" "vfscore + 9pfs file" (ms via_9pfs);
        row "%-34s %12.2f ms
" "ukblock, sync per record" (ms via_sync);
        row "%-34s %12.2f ms (%.1fx vs 9pfs)
" "ukblock, batched x32" (ms via_batch)
          (via_9pfs /. via_batch);
        row "=> coding against ukblock removes the VFS+9p layers; batching hides device latency
");
  }

(* What does §7 security cost? MPK-compartmentalized SHFS lookups and a
   sanitized allocator vs. their plain counterparts. *)
let abl_security =
  {
    Bench.id = "abl-security";
    group = "ablation";
    descr = "ablation: cost of MPK compartments and ASan on hot paths";
    run =
      (fun () ->
        (* MPK: seal SHFS data behind a compartment, cross a gate per
           lookup. *)
        let n = scaled 100_000 in
        let mpk_cost gated =
          let clock = Uksim.Clock.create () in
          let shfs = Ukvfs.Shfs.create ~clock in
          Ukvfs.Shfs.add shfs ~name:"obj.html" (Bytes.make 256 'o');
          let m = Ukmpk.Mpk.create ~clock in
          let key = Result.get_ok (Ukmpk.Mpk.alloc_key m ~name:"shfs" ()) in
          Ukmpk.Mpk.bind_range m key ~base:0x100000 ~len:65536;
          let gate = Ukmpk.Mpk.Gate.create m ~target_key:key in
          let one () =
            match Ukvfs.Shfs.open_direct shfs "obj.html" with
            | Ok h ->
                Ukmpk.Mpk.load m 0x100040;
                Ukvfs.Shfs.close_direct shfs h
            | Error _ -> ()
          in
          let s = Uksim.Clock.start clock in
          for _ = 1 to n do
            if gated then Ukmpk.Mpk.Gate.enter gate one
            else begin
              (* Un-compartmentalized build: the key stays open. *)
              Ukmpk.Mpk.set_rights m key Ukmpk.Mpk.Read_write;
              one ()
            end
          done;
          Uksim.Clock.elapsed_cycles clock s / n
        in
        let plain = mpk_cost false and gated = mpk_cost true in
        row "shfs lookup, open compartment:   %5d cycles\n" plain;
        row "shfs lookup, through MPK gate:   %5d cycles (+%d for 4 WRPKRU)\n" gated
          (gated - plain);
        (* ASan: allocator round trips with and without the sanitizer. *)
        let alloc_cost sanitized =
          let clock = Uksim.Clock.create () in
          let inner = Ukalloc.Tlsf.create ~clock ~base:(1 lsl 22) ~len:(1 lsl 24) in
          let a =
            if sanitized then Ukalloc.Asan.alloc (Ukalloc.Asan.wrap ~clock inner) else inner
          in
          let s = Uksim.Clock.start clock in
          for _ = 1 to n do
            match a.Ukalloc.Alloc.malloc 128 with
            | Some addr -> a.Ukalloc.Alloc.free addr
            | None -> ()
          done;
          Uksim.Clock.elapsed_cycles clock s / n
        in
        let plain_a = alloc_cost false and asan_a = alloc_cost true in
        row "tlsf malloc+free, plain:         %5d cycles\n" plain_a;
        row "tlsf malloc+free, asan+redzones: %5d cycles (quarantine + padding)\n" asan_a;
        row "=> security features cost measurable but bounded cycles (paper: \"possible to\n   achieve good security while retaining high performance\")\n");
  }

(* Binary compatibility vs. binary rewriting on a syscall-heavy binary
   (§4.1 / HermiTux). *)
let abl_bincompat =
  {
    Bench.id = "abl-bincompat";
    group = "ablation";
    descr = "ablation: binary compat (trap) vs binary rewriting";
    run =
      (fun () ->
        let module Bin = Uksyscall.Binary in
        (* A getpid/write-heavy inner loop, unrolled: 1 syscall per 4
           instructions. *)
        let body =
          List.concat
            (List.init (scaled 20_000) (fun i ->
                 [ Bin.Mov (0, 1); Bin.Add (0, 2);
                   Bin.Syscall (if i land 1 = 0 then 39 else 1); Bin.Cmp (0, 1) ]))
          @ [ Bin.Ret ]
        in
        let run binary =
          let clock = Uksim.Clock.create () in
          let shim = Uksyscall.Shim.create ~clock ~mode:Uksyscall.Shim.Native_link in
          Uksyscall.Appdb.install_supported shim;
          Bin.execute ~clock ~shim binary
        in
        let plain = run (Bin.assemble body) in
        let rewritten = run (Bin.rewrite (Bin.assemble body)) in
        row "trap-and-translate: %8d syscalls in %9d cycles (%.1f cyc/insn)\n"
          plain.Bin.syscalls plain.Bin.cycles
          (float_of_int plain.Bin.cycles /. float_of_int plain.Bin.instructions);
        row "rewritten:          %8d syscalls in %9d cycles (%.1f cyc/insn)\n"
          rewritten.Bin.syscalls rewritten.Bin.cycles
          (float_of_int rewritten.Bin.cycles /. float_of_int rewritten.Bin.instructions);
        row "=> rewriting recovers %.1fx on this binary (Table 1's 84-vs-4 per call)\n"
          (float_of_int plain.Bin.cycles /. float_of_int rewritten.Bin.cycles));
  }

(* The fast-path ablation matrix (the PR's headline experiment): an
   8-core httpd + RESP cluster on the legacy socket/copy datapath vs the
   zero-copy batched run-to-completion netbuf datapath, then each
   ingredient — RX batching + TX coalescing, zero-copy, run-to-completion
   dispatch, per-core netbuf pools — switched off individually.

   Gates:
   - fastpath_httpd_speedup and fastpath_resp_speedup >= 5 over the
     copy-path baseline;
   - zero counted memcpys and zero errors: neither the httpd nor the
     RESP fast run makes any counted copy or gets an error reply;
   - the 8-core fast run replays byte-identically from its seed with
     the tracer on (fastpath_replay). *)
let abl_fastpath =
  {
    Bench.id = "abl-fastpath";
    group = "ablation";
    descr = "ablation: zero-copy batched run-to-completion datapath (8-core cluster)";
    run =
      (fun () ->
        let module Cl = Ukapps.Cluster in
        let module Httpd = Ukapps.Httpd in
        let n = 4 (* 2n = 8 cores *) in
        let conns = 8 in
        (* Deliberately not [scaled]: the whole matrix runs in under a
           second, and the gates need the steady state — at smoke-run
           sizes connection setup and warm-up dominate and the speedup
           collapses to ~2.5x. *)
        let reqs = 2000 in
        (* The pre-PR datapath, spelled out as ingredient knobs: per-packet
           processing, copies into fresh buffers, no TX coalescing. *)
        let copy_fp = { Cl.rx_batch = 1; rx_copy = true; tx_coalesce = false;
                        shared_pool = false } in
        let content = Httpd.In_memory [ ("/index.html", Httpd.default_page) ] in
        let fast = Ukapps.Serve.Netbuf { rtc = true } in
        let nortc = Ukapps.Serve.Netbuf { rtc = false } in
        let httpd_case name ~fp ~transport () =
          Bench.trial ();
          let c = Cl.create ~seed:42 ~fastpath:fp ~n () in
          let copies0 = Nb.total_copies () in
          let r =
            Bench.phase ("httpd_" ^ name) (fun () ->
                ignore (Cl.add_httpd c ~transport content);
                (* The socket leg keeps wrk's one request in flight per
                   connection; the netbuf leg pipelines 32 deep, since its
                   replies are consumed in place and nothing throttles
                   the window. *)
                let pipeline = if transport = Ukapps.Serve.Socket then 1 else 32 in
                Cl.run_load c ~transport ~port:80 ~connections_per_core:conns
                  ~requests_per_core:reqs ~pipeline (Httpd.client ()))
          in
          let copies = Nb.total_copies () - copies0 in
          (r, copies, Cl.trace_hash c)
        in
        let resp_case name ~fp ~transport () =
          Bench.trial ();
          let c = Cl.create ~seed:42 ~fastpath:fp ~n () in
          let copies0 = Nb.total_copies () in
          let r =
            Bench.phase ("resp_" ^ name) (fun () ->
                (* Same pipelined workload on both paths (redis-benchmark
                   -P 32). *)
                ignore (Cl.add_resp c ~transport ~populate:4096 ());
                Cl.run_load c ~transport ~port:6379 ~connections_per_core:conns ~pipeline:32
                  ~requests_per_core:reqs (Ukapps.Resp_store.client Ukapps.Resp_store.Get))
          in
          let copies = Nb.total_copies () - copies0 in
          (r, copies, Cl.trace_hash c)
        in
        let per_req (elapsed_ns : float) requests =
          elapsed_ns /. float_of_int (requests * n)
        in
        (* --- httpd: baseline, full fast path, per-ingredient ablations --- *)
        let h_legacy, h_legacy_copies, _ =
          httpd_case "legacy" ~fp:copy_fp ~transport:Ukapps.Serve.Socket ()
        in
        let h_fast, h_fast_copies, h_hash =
          httpd_case "fast" ~fp:Cl.fastpath_default ~transport:fast ()
        in
        let fingerprint (r, copies, hash) =
          Bench.fp_i "trace_hash" hash :: Bench.fp_i "copies" copies :: load_fingerprint r
        in
        Bench.replay "fastpath" ~first:(fingerprint (h_fast, h_fast_copies, h_hash)) (fun () ->
            fingerprint (httpd_case "fast_replay" ~fp:Cl.fastpath_default ~transport:fast ()));
        let h_nobatch, _, _ =
          httpd_case "fast_nobatch"
            ~fp:{ Cl.fastpath_default with Cl.rx_batch = 1; tx_coalesce = false }
            ~transport:fast ()
        in
        let h_copy, _, _ =
          httpd_case "fast_copy" ~fp:{ Cl.fastpath_default with Cl.rx_copy = true }
            ~transport:fast ()
        in
        let h_nortc, _, _ =
          httpd_case "fast_nortc" ~fp:Cl.fastpath_default ~transport:nortc ()
        in
        let h_pool, _, _ =
          httpd_case "fast_sharedpool"
            ~fp:{ Cl.fastpath_default with Cl.shared_pool = true } ~transport:fast ()
        in
        row "httpd, %d server cores, %d conns/core, %d reqs/core:\n" n conns reqs;
        row "  %-18s %12s %12s %10s\n" "config" "kreq/s" "cyc/req" "copies";
        let hrow name (r : Ukapps.Load.result) copies =
          row "  %-18s %12.1f %12.0f %10s\n" name (kreq r.Ukapps.Load.rate_per_sec)
            (per_req r.Ukapps.Load.elapsed_ns reqs)
            (match copies with Some c -> string_of_int c | None -> "-")
        in
        hrow "legacy-copy" h_legacy (Some h_legacy_copies);
        hrow "fast" h_fast (Some h_fast_copies);
        hrow "  -batching" h_nobatch None;
        hrow "  -zero-copy" h_copy None;
        hrow "  -rtc" h_nortc None;
        hrow "  -percore-pools" h_pool None;
        let h_speedup = h_legacy.Ukapps.Load.elapsed_ns /. h_fast.Ukapps.Load.elapsed_ns in
        row "=> httpd fast path: %.1fx; counted copies in fast run: %d\n" h_speedup h_fast_copies;
        (* --- RESP: baseline vs fast (the Fig 14 porting story) ----------- *)
        let r_legacy, _, _ = resp_case "legacy" ~fp:copy_fp ~transport:Ukapps.Serve.Socket () in
        let r_fast, r_fast_copies, _ =
          resp_case "fast" ~fp:Cl.fastpath_default ~transport:fast ()
        in
        let r_nortc, _, _ = resp_case "fast_nortc" ~fp:Cl.fastpath_default ~transport:nortc () in
        row "RESP GET, same topology:\n";
        let rrow name (r : Ukapps.Load.result) copies =
          row "  %-18s %12.1f %12.0f %10s\n" name (kreq r.Ukapps.Load.rate_per_sec)
            (per_req r.Ukapps.Load.elapsed_ns reqs)
            (match copies with Some c -> string_of_int c | None -> "-")
        in
        rrow "legacy-copy" r_legacy None;
        rrow "fast" r_fast (Some r_fast_copies);
        rrow "  -rtc" r_nortc None;
        let r_speedup = r_legacy.Ukapps.Load.elapsed_ns /. r_fast.Ukapps.Load.elapsed_ns in
        row "=> RESP fast path: %.1fx; counted copies in fast run: %d\n" r_speedup r_fast_copies;
        Bench.emit_f "fastpath_httpd_speedup" h_speedup;
        Bench.emit_f "fastpath_resp_speedup" r_speedup;
        Bench.emit_i "fastpath_httpd_hot_copies" h_fast_copies;
        Bench.emit_i "fastpath_resp_copies" r_fast_copies;
        Bench.emit_i "fastpath_httpd_errors" h_fast.Ukapps.Load.errors;
        Bench.emit_i "fastpath_resp_errors" r_fast.Ukapps.Load.errors;
        Bench.emit_f "fastpath_httpd_cyc_per_req" (per_req h_fast.Ukapps.Load.elapsed_ns reqs);
        Bench.emit_f "fastpath_resp_cyc_per_req" (per_req r_fast.Ukapps.Load.elapsed_ns reqs);
        Bench.gate "fastpath_httpd_speedup_ge5" (h_speedup >= 5.0);
        Bench.gate "fastpath_resp_speedup_ge5" (r_speedup >= 5.0);
        Bench.gate "fastpath_httpd_zero_copies" (h_fast_copies = 0);
        Bench.gate "fastpath_resp_zero_copies" (r_fast_copies = 0);
        Bench.gate "fastpath_httpd_zero_errors" (h_fast.Ukapps.Load.errors = 0);
        Bench.gate "fastpath_resp_zero_errors" (r_fast.Ukapps.Load.errors = 0));
  }

let register () = List.iter Bench.register_exp
  [ abl_batch; abl_netmode; abl_twoalloc; abl_dispatch; abl_block; abl_security;
    abl_bincompat; abl_fastpath ]
