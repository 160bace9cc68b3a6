(* Tests for all ukalloc backends: unit behaviours plus a randomized
   malloc/free workload validated through the Checked invariant wrapper. *)

open Ukalloc

let mib = Uksim.Units.mib

let backends () =
  let clock = Uksim.Clock.create () in
  [
    ("buddy", Buddy.create ~clock ~base:(mib 16) ~len:(mib 16));
    ("tlsf", Tlsf.create ~clock ~base:(mib 16) ~len:(mib 16));
    ("tinyalloc", Tinyalloc.create ~clock ~base:(mib 16) ~len:(mib 16));
    ("mimalloc", Mimalloc.create ~clock ~base:(mib 16) ~len:(mib 16));
    ("bootalloc", Bootalloc.create ~clock ~base:(mib 16) ~len:(mib 16));
    ("oscar", Oscar.create ~clock ~base:(mib 16) ~len:(mib 16));
  ]

let test_roundtrip () =
  List.iter
    (fun (name, a) ->
      match Alloc.uk_malloc a 100 with
      | None -> Alcotest.failf "%s: malloc failed" name
      | Some addr ->
          Alcotest.(check bool) (name ^ ": 16-aligned") true (addr land 15 = 0);
          Alloc.uk_free a addr;
          let count = Uktrace.Source.count a.Alloc.source in
          Alcotest.(check int) (name ^ ": one alloc") 1 (count "allocs");
          Alcotest.(check int) (name ^ ": one free") 1 (count "frees"))
    (backends ())

let test_zero_and_negative () =
  List.iter
    (fun (name, a) ->
      Alcotest.(check bool) (name ^ ": malloc 0 fails") true (Alloc.uk_malloc a 0 = None);
      Alcotest.(check bool) (name ^ ": malloc -1 fails") true (Alloc.uk_malloc a (-1) = None))
    (backends ())

let test_memalign () =
  List.iter
    (fun (name, a) ->
      match Alloc.uk_memalign a ~align:256 100 with
      | None -> Alcotest.failf "%s: memalign failed" name
      | Some addr -> Alcotest.(check int) (name ^ ": aligned 256") 0 (addr land 255))
    (backends ())

let test_calloc () =
  List.iter
    (fun (name, a) ->
      (match Alloc.uk_calloc a 4 32 with
      | None -> Alcotest.failf "%s: calloc failed" name
      | Some _ -> ());
      Alcotest.(check bool) (name ^ ": calloc 0 fails") true (Alloc.uk_calloc a 0 8 = None))
    (backends ())

let test_oom_and_recovery () =
  (* Exhaust a small region, then free and observe recovery (except for
     the by-design non-reclaiming bootalloc and address-burning oscar). *)
  let clock = Uksim.Clock.create () in
  let small =
    [
      ("buddy", Buddy.create ~clock ~base:(mib 1) ~len:(mib 1));
      ("tlsf", Tlsf.create ~clock ~base:(mib 1) ~len:(mib 1));
    ]
  in
  List.iter
    (fun (name, a) ->
      let addrs = ref [] in
      let rec fill () =
        match Alloc.uk_malloc a 4096 with
        | Some addr ->
            addrs := addr :: !addrs;
            fill ()
        | None -> ()
      in
      fill ();
      Alcotest.(check bool) (name ^ ": filled region") true (List.length !addrs > 100);
      Alcotest.(check bool) (name ^ ": OOM recorded") true
        (Uktrace.Source.count a.Alloc.source "failed" > 0);
      List.iter (Alloc.uk_free a) !addrs;
      (match Alloc.uk_malloc a 4096 with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no recovery after free" name);
      Alcotest.(check bool)
        (name ^ ": live bytes low after frees")
        true
        (Uktrace.Source.level a.Alloc.source "bytes_in_use" <= 4096.0))
    small

let test_buddy_coalescing () =
  let clock = Uksim.Clock.create () in
  let a = Buddy.create ~clock ~base:(mib 1) ~len:(mib 1) in
  (* Fill with max-order block; requires full coalescing after frees. *)
  let all = List.init 256 (fun _ -> Option.get (Alloc.uk_malloc a 4096)) in
  List.iter (Alloc.uk_free a) all;
  match a.Alloc.memalign ~align:16 (mib 1 / 2) with
  | Some _ -> ()
  | None -> Alcotest.fail "buddy failed to coalesce back to large blocks"

let test_buddy_errors () =
  let clock = Uksim.Clock.create () in
  Alcotest.check_raises "len not power of two"
    (Invalid_argument "Buddy.create: len must be a power of two >= 2^min_order") (fun () ->
      ignore (Buddy.create ~clock ~base:0 ~len:1000));
  let a = Buddy.create ~clock ~base:(mib 1) ~len:(mib 1) in
  Alcotest.check_raises "free of unknown address"
    (Invalid_argument "Buddy.free: unknown address 0x7b") (fun () -> Alloc.uk_free a 123)

let test_tlsf_o1_behaviour () =
  (* TLSF's defining property: cost does not grow with the number of live
     blocks. Compare cycles of an alloc/free pair early vs. late. *)
  let clock = Uksim.Clock.create () in
  let a = Tlsf.create ~clock ~base:(mib 16) ~len:(mib 16) in
  let measure () =
    let s = Uksim.Clock.start clock in
    let addr = Option.get (Alloc.uk_malloc a 128) in
    Alloc.uk_free a addr;
    Uksim.Clock.elapsed_cycles clock s
  in
  let early = measure () in
  let keep = List.init 2000 (fun i -> Option.get (Alloc.uk_malloc a (64 + (i mod 512)))) in
  let late = measure () in
  ignore keep;
  Alcotest.(check bool)
    (Printf.sprintf "O(1): early=%d late=%d" early late)
    true
    (late <= early * 3)

let test_tinyalloc_degrades () =
  (* tinyalloc's free-list walk grows with fragmentation (Fig 16's
     crossover behaviour). *)
  let clock = Uksim.Clock.create () in
  let a = Tinyalloc.create ~clock ~base:(mib 16) ~len:(mib 64) in
  let measure () =
    let s = Uksim.Clock.start clock in
    let addr = Option.get (Alloc.uk_malloc a 100000) in
    Alloc.uk_free a addr;
    Uksim.Clock.elapsed_cycles clock s
  in
  let early = measure () in
  (* Build a fragmented free list: allocate many, free alternating. *)
  let blocks = Array.init 512 (fun i -> Option.get (Alloc.uk_malloc a (64 + (8 * (i mod 16))))) in
  Array.iteri (fun i addr -> if i mod 2 = 0 then Alloc.uk_free a addr) blocks;
  let late = measure () in
  Alcotest.(check bool)
    (Printf.sprintf "degrades under fragmentation: early=%d late=%d" early late)
    true (late > early)

let test_mimalloc_flat () =
  (* Free-list sharding keeps the fast path flat under load (Fig 18). *)
  let clock = Uksim.Clock.create () in
  let a = Mimalloc.create ~clock ~base:(mib 64) ~len:(mib 64) in
  let measure () =
    let s = Uksim.Clock.start clock in
    let addr = Option.get (Alloc.uk_malloc a 128) in
    Alloc.uk_free a addr;
    Uksim.Clock.elapsed_cycles clock s
  in
  let early = measure () in
  let keep = List.init 5000 (fun i -> Option.get (Alloc.uk_malloc a (16 + (i mod 1000)))) in
  List.iteri (fun i addr -> if i mod 3 = 0 then Alloc.uk_free a addr) keep;
  let late = measure () in
  Alcotest.(check bool)
    (Printf.sprintf "flat under load: early=%d late=%d" early late)
    true
    (late <= early * 2)

let test_bootalloc_no_reclaim () =
  let clock = Uksim.Clock.create () in
  let a = Bootalloc.create ~clock ~base:0 ~len:65536 in
  let before = a.Alloc.availmem () in
  let addr = Option.get (Alloc.uk_malloc a 1024) in
  Alloc.uk_free a addr;
  Alcotest.(check bool) "free does not reclaim" true (a.Alloc.availmem () < before)

let test_oscar_never_reuses () =
  let clock = Uksim.Clock.create () in
  let a = Oscar.create ~clock ~base:0 ~len:(mib 4) in
  let a1 = Option.get (Alloc.uk_malloc a 64) in
  Alloc.uk_free a a1;
  let a2 = Option.get (Alloc.uk_malloc a 64) in
  Alcotest.(check bool) "addresses never reused" true (a1 <> a2);
  (* Physical memory is reclaimed even though addresses are not. *)
  Alloc.uk_free a a2;
  Alcotest.(check int) "physical reclaimed" (mib 4) (a.Alloc.availmem ())

let test_realloc () =
  List.iter
    (fun (name, a) ->
      let addr = Option.get (Alloc.uk_malloc a 64) in
      match Alloc.uk_realloc a addr 4096 with
      | None -> Alcotest.failf "%s: realloc failed" name
      | Some naddr ->
          Alcotest.(check bool) (name ^ ": realloc yields valid block") true (naddr > 0))
    (backends ())

let test_boot_cost_ordering () =
  (* Fig 14's driver: buddy init walks the region; bootalloc is O(1). *)
  let cost create =
    let clock = Uksim.Clock.create () in
    ignore (create clock);
    Uksim.Clock.cycles clock
  in
  let buddy = cost (fun clock -> Buddy.create ~clock ~base:(mib 256) ~len:(mib 256)) in
  let tlsf = cost (fun clock -> Tlsf.create ~clock ~base:(mib 256) ~len:(mib 256)) in
  let boot = cost (fun clock -> Bootalloc.create ~clock ~base:(mib 256) ~len:(mib 256)) in
  let mim = cost (fun clock -> Mimalloc.create ~clock ~base:(mib 256) ~len:(mib 256)) in
  Alcotest.(check bool) "bootalloc < tlsf" true (boot < tlsf);
  Alcotest.(check bool) "tlsf < mimalloc" true (tlsf < mim);
  Alcotest.(check bool) "mimalloc < buddy" true (mim < buddy)

let test_registry () =
  let clock = Uksim.Clock.create () in
  let r = Alloc.Registry.create () in
  let a = Tlsf.create ~clock ~base:(mib 1) ~len:(mib 1) in
  let b = Bootalloc.create ~clock ~base:(mib 4) ~len:(mib 1) in
  Alloc.Registry.register r a;
  Alloc.Registry.register r b;
  (match Alloc.Registry.default r with
  | Some d -> Alcotest.(check string) "first registered is default" "tlsf" d.Alloc.name
  | None -> Alcotest.fail "default");
  Alcotest.(check bool) "find by name" true (Alloc.Registry.find r "bootalloc" <> None);
  Alcotest.(check int) "all" 2 (List.length (Alloc.Registry.all r));
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Alloc.Registry.register: duplicate allocator tlsf") (fun () ->
      Alloc.Registry.register r (Tlsf.create ~clock ~base:(mib 8) ~len:(mib 1)))

(* Randomized workload through the Checked wrapper: catches overlapping
   blocks, misalignment, bad frees across every backend. *)
let random_workload_prop (name, mk_alloc) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: random malloc/free workload keeps invariants" name)
    ~count:30
    QCheck.(list (pair (int_bound 2) (int_range 1 2000)))
    (fun ops ->
      let checked = Checked.wrap (mk_alloc ()) in
      let a = Checked.alloc checked in
      let live = ref [] in
      List.iter
        (fun (op, size) ->
          match op with
          | 0 | 1 -> (
              match a.Alloc.malloc size with
              | Some addr -> live := (addr, size) :: !live
              | None -> ())
          | _ -> (
              match !live with
              | (addr, _) :: rest ->
                  a.Alloc.free addr;
                  live := rest
              | [] -> ()))
        ops;
      List.iter (fun (addr, _) -> a.Alloc.free addr) !live;
      Checked.live_count checked = 0)

let random_props =
  let mk f = fun () -> f (Uksim.Clock.create ()) in
  [
    ("buddy", mk (fun clock -> Buddy.create ~clock ~base:(mib 4) ~len:(mib 4)));
    ("tlsf", mk (fun clock -> Tlsf.create ~clock ~base:(mib 4) ~len:(mib 4)));
    ("tinyalloc", mk (fun clock -> Tinyalloc.create ~clock ~base:(mib 4) ~len:(mib 4)));
    ("mimalloc", mk (fun clock -> Mimalloc.create ~clock ~base:(mib 4) ~len:(mib 4)));
    ("oscar", mk (fun clock -> Oscar.create ~clock ~base:(mib 4) ~len:(mib 16)));
  ]
  |> List.map (fun b -> QCheck_alcotest.to_alcotest (random_workload_prop b))

let suite =
  [
    Alcotest.test_case "malloc/free roundtrip (all backends)" `Quick test_roundtrip;
    Alcotest.test_case "invalid sizes rejected" `Quick test_zero_and_negative;
    Alcotest.test_case "memalign" `Quick test_memalign;
    Alcotest.test_case "calloc" `Quick test_calloc;
    Alcotest.test_case "OOM and recovery" `Quick test_oom_and_recovery;
    Alcotest.test_case "buddy coalescing" `Quick test_buddy_coalescing;
    Alcotest.test_case "buddy error paths" `Quick test_buddy_errors;
    Alcotest.test_case "tlsf O(1) under load" `Quick test_tlsf_o1_behaviour;
    Alcotest.test_case "tinyalloc degrades under fragmentation" `Quick test_tinyalloc_degrades;
    Alcotest.test_case "mimalloc flat under load" `Quick test_mimalloc_flat;
    Alcotest.test_case "bootalloc never reclaims" `Quick test_bootalloc_no_reclaim;
    Alcotest.test_case "oscar never reuses addresses" `Quick test_oscar_never_reuses;
    Alcotest.test_case "realloc" `Quick test_realloc;
    Alcotest.test_case "boot cost ordering (Fig 14)" `Quick test_boot_cost_ordering;
    Alcotest.test_case "registry" `Quick test_registry;
  ]
  @ random_props
