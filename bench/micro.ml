(* Bechamel micro-benchmarks: real (wall-clock) cost of the hot
   primitives of each table's code path. One group per paper table. *)

open Bechamel

let mib = Uksim.Units.mib

(* Table 1 group: syscall dispatch paths. *)
let tab1_tests =
  let mk name mode =
    let clock = Uksim.Clock.create () in
    let shim = Uksyscall.Shim.create ~clock ~mode in
    Uksyscall.Shim.register shim ~sysno:0 (fun _ -> Ok 0);
    Test.make ~name (Staged.stage (fun () -> Uksyscall.Shim.call shim ~sysno:0 [||]))
  in
  [
    mk "dispatch/native" Uksyscall.Shim.Native_link;
    mk "dispatch/bincompat" Uksyscall.Shim.Binary_compat;
    mk "dispatch/linux" Uksyscall.Shim.Linux_vm;
  ]

(* Table 2 group: the link-check machinery over the porting dataset. *)
let tab2_tests =
  [
    Test.make ~name:"porting/table2"
      (Staged.stage (fun () -> ignore (Ukbuild.Porting.table2 ())));
    Test.make ~name:"porting/link-nginx"
      (Staged.stage
         (let e =
            List.find (fun (x : Ukbuild.Porting.entry) -> x.Ukbuild.Porting.lib = "lib-nginx")
              Ukbuild.Porting.entries
          in
          fun () ->
            ignore
              (Ukbuild.Porting.link_check e
                 { Ukbuild.Porting.libc = Ukbuild.Porting.Musl; compat_layer = true })));
  ]

(* Table 4 group: the per-request primitives of the KV fast path. *)
let tab4_tests =
  let clock = Uksim.Clock.create () in
  let alloc = Ukalloc.Tlsf.create ~clock ~base:(mib 64) ~len:(mib 64) in
  let store = Ukapps.Udp_kv.create_store ~clock ~alloc in
  Ukapps.Udp_kv.store_set store "k0001" "v";
  let nb =
    let b = Uknetdev.Netbuf.of_bytes (Bytes.of_string "G k0001") in
    let src = Uknetstack.Addr.Ipv4.of_string "10.0.0.2" in
    let dst = Uknetstack.Addr.Ipv4.of_string "10.0.0.1" in
    Uknetstack.Pkt.Udp.encode { Uknetstack.Pkt.Udp.src_port = 6000; dst_port = 5000 } ~src ~dst b;
    Uknetstack.Pkt.Ipv4.encode
      (Uknetstack.Pkt.Ipv4.header ~src ~dst ~proto:Uknetstack.Pkt.Ipv4.Udp
         ~payload_len:(Uknetdev.Netbuf.len b))
      b;
    Uknetdev.Netbuf.copy_out b
  in
  [
    Test.make ~name:"udpkv/store-get"
      (Staged.stage (fun () -> Ukapps.Udp_kv.store_get store "k0001"));
    Test.make ~name:"udpkv/ip-udp-decode"
      (Staged.stage (fun () ->
           let b = Uknetdev.Netbuf.of_bytes nb in
           let src = Uknetstack.Addr.Ipv4.of_string "10.0.0.2" in
           let dst = Uknetstack.Addr.Ipv4.of_string "10.0.0.1" in
           match Uknetstack.Pkt.Ipv4.decode b with
           | Ok _ -> ignore (Uknetstack.Pkt.Udp.decode ~src ~dst b)
           | Error _ -> ()));
  ]

(* Allocator group (Figs 14-18 substrate). *)
let alloc_tests =
  let mk name create =
    let a = create () in
    Test.make ~name
      (Staged.stage (fun () ->
           match a.Ukalloc.Alloc.malloc 128 with
           | Some addr -> a.Ukalloc.Alloc.free addr
           | None -> ()))
  in
  [
    mk "alloc/tlsf" (fun () ->
        Ukalloc.Tlsf.create ~clock:(Uksim.Clock.create ()) ~base:(mib 16) ~len:(mib 16));
    mk "alloc/buddy" (fun () ->
        Ukalloc.Buddy.create ~clock:(Uksim.Clock.create ()) ~base:(mib 16) ~len:(mib 16));
    mk "alloc/mimalloc" (fun () ->
        Ukalloc.Mimalloc.create ~clock:(Uksim.Clock.create ()) ~base:(mib 16) ~len:(mib 16));
    mk "alloc/tinyalloc" (fun () ->
        Ukalloc.Tinyalloc.create ~clock:(Uksim.Clock.create ()) ~base:(mib 16) ~len:(mib 16));
  ]

(* Support-library group: the data structures under the drivers. *)
let support_tests =
  let dns_msg =
    Ukapps.Dns.encode
      { Ukapps.Dns.id = 1; query = false; rcode = Ukapps.Dns.No_error;
        recursion_desired = false;
        questions = [ { Ukapps.Dns.qname = "www.example.com"; qtype = Ukapps.Dns.A } ];
        answers =
          [ { Ukapps.Dns.name = "www.example.com"; rtype = Ukapps.Dns.A; ttl = 60;
              rdata = Ukapps.Dns.Ipv4_addr (Uknetstack.Addr.Ipv4.of_string "10.0.0.1") } ];
        authority = [] }
  in
  [
    Test.make ~name:"support/dns-decode"
      (Staged.stage (fun () -> ignore (Ukapps.Dns.decode dns_msg)));
  ]

let groups =
  [
    Test.make_grouped ~name:"tab1" tab1_tests;
    Test.make_grouped ~name:"tab2" tab2_tests;
    Test.make_grouped ~name:"tab4" tab4_tests;
    Test.make_grouped ~name:"alloc" alloc_tests;
    Test.make_grouped ~name:"support" support_tests;
  ]

let run () =
  Printf.printf "\n=== bechamel micro-benchmarks (real wall-clock, ns/op) ===\n%!";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] group in
      let results =
        Analyze.all
          (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Printf.printf "%-36s %12.1f ns/op\n" name t
          | Some [] | None -> Printf.printf "%-36s %12s\n" name "n/a")
        (List.sort compare rows))
    groups
