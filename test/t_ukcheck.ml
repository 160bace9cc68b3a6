(* Tests for ukcheck: the schedule explorer (planted lost-wakeup bug,
   shrinking, byte-identical certificate replay), the lockset race
   detector (racy vs locked counter, false-positive silence on real
   workloads) and the property harness, which also explores the uklock
   mutex and the ukalloc per-core arena. *)

module Smp = Uksmp.Smp
module Explore = Ukcheck.Explore
module Schedule = Ukcheck.Schedule
module Lockset = Ukcheck.Lockset
module Shared = Ukcheck.Shared
module Prop = Ukcheck.Prop
module Sched = Uksched.Sched

(* --- planted bug: classic lost wakeup ------------------------------------ *)

(* The consumer checks the flag, then yields (the race window), then
   blocks WITHOUT re-checking. Under the default FIFO schedule the
   producer runs first, so the flag is already set and the consumer
   never blocks; dispatching the consumer first loses the wakeup (the
   wake hits a thread that is runnable, not blocked) and deadlocks. *)
let lost_wakeup_fixture smp ~seed:_ =
  let flag = ref false in
  let consumer_done = ref false in
  let ctid = ref (-1) in
  ignore
    (Sched.spawn (Smp.sched_of smp ~core:0) ~name:"producer" (fun () ->
         flag := true;
         Sched.wake (Smp.sched_of smp ~core:0) !ctid));
  ctid :=
    Sched.spawn (Smp.sched_of smp ~core:0) ~name:"consumer" (fun () ->
        if not !flag then begin
          Sched.yield ();
          Sched.block ()
        end;
        consumer_done := true);
  fun () -> Prop.require !consumer_done "consumer never completed"

let explore_lost_wakeup () =
  match Explore.run (Explore.config ~cores:1 ~budget:64 ()) lost_wakeup_fixture with
  | Explore.Passed _ -> Alcotest.fail "explorer missed the planted lost wakeup"
  | Explore.Failed f -> f

let test_explorer_finds_lost_wakeup () =
  let f = explore_lost_wakeup () in
  Alcotest.(check bool)
    (Printf.sprintf "violation is the deadlock (%s)" f.Explore.message)
    true
    (String.length f.Explore.message >= 8 && String.sub f.Explore.message 0 8 = "deadlock");
  Alcotest.(check bool)
    (Printf.sprintf "found within budget (after %d)" f.Explore.found_after)
    true (f.Explore.found_after <= 64)

let test_shrunk_cert_is_minimal () =
  let f = explore_lost_wakeup () in
  (* The bug needs exactly one non-default decision: dispatch the
     consumer (choice 1) at the first two-way choice point. *)
  Alcotest.(check int) "one decision survives shrinking" 1
    (List.length f.Explore.cert.Schedule.decisions);
  let d = List.hd f.Explore.cert.Schedule.decisions in
  Alcotest.(check string) "it is a dispatch choice" "dispatch@0" d.Schedule.kind;
  Alcotest.(check int) "non-default branch" 1 d.Schedule.choice

let test_cert_replays_byte_identically () =
  let f = explore_lost_wakeup () in
  let r1 = Explore.replay lost_wakeup_fixture f.Explore.cert in
  let r2 = Explore.replay lost_wakeup_fixture f.Explore.cert in
  Alcotest.(check bool) "replay fails" true (r1.Explore.outcome <> Ok ());
  Alcotest.(check bool) "same outcome" true (r1.Explore.outcome = r2.Explore.outcome);
  Alcotest.(check int) "same trace hash" r1.Explore.hash r2.Explore.hash;
  Alcotest.(check int) "replay hash = certificate hash" f.Explore.trace_hash r1.Explore.hash;
  Alcotest.(check bool) "same decision log" true (r1.Explore.log = r2.Explore.log)

let test_cert_string_roundtrip () =
  let f = explore_lost_wakeup () in
  let s = Schedule.to_string f.Explore.cert in
  (match Schedule.of_string s with
  | Some c -> Alcotest.(check bool) ("roundtrip of " ^ s) true (c = f.Explore.cert)
  | None -> Alcotest.failf "could not parse own output: %s" s);
  Alcotest.(check bool) "garbage rejected" true (Schedule.of_string "seed=;nope" = None)

let test_explorer_passes_correct_code () =
  (* Same shape without the bug: the consumer re-checks under no window.
     Every schedule must pass, and the space is small enough to finish. *)
  let fixture smp ~seed:_ =
    let flag = ref false in
    let consumer_done = ref false in
    let ctid = ref (-1) in
    ignore
      (Sched.spawn (Smp.sched_of smp ~core:0) ~name:"producer" (fun () ->
           flag := true;
           Sched.wake (Smp.sched_of smp ~core:0) !ctid));
    ctid :=
      Sched.spawn (Smp.sched_of smp ~core:0) ~name:"consumer" (fun () ->
          if not !flag then Sched.block ();
          consumer_done := true);
    fun () -> Prop.require !consumer_done "consumer never completed"
  in
  match Explore.run (Explore.config ~cores:1 ~budget:64 ()) fixture with
  | Explore.Passed s ->
      Alcotest.(check bool) "exhaustive" true s.Explore.exhaustive;
      Alcotest.(check bool)
        (Printf.sprintf "several schedules tried (%d)" s.Explore.schedules)
        true
        (s.Explore.schedules >= 2)
  | Explore.Failed f ->
      Alcotest.failf "false positive: %s (%s)" f.Explore.message
        (Schedule.to_string f.Explore.cert)

let test_explored_fault_seeds () =
  (* The seeds axis composes with fault injection: a fixture that
     reseeds a fault-injecting allocator from the explored seed gets a
     different (deterministic) OOM pattern per seed, and the invariant
     must hold across all of them. *)
  let failures_by_seed = ref [] in
  let fixture smp ~seed =
    let backend =
      Ukalloc.Tlsf.create ~clock:(Uksim.Clock.create ()) ~base:(1 lsl 20) ~len:(1 lsl 20)
    in
    let faulty = Ukfault.Faultalloc.wrap ~rng:(Uksim.Rng.create 0) ~fail_rate:0.3 backend in
    Ukfault.Faultalloc.reseed faulty seed;
    let view = Ukfault.Faultalloc.alloc faulty in
    let got = ref 0 and failed = ref 0 in
    ignore
      (Sched.spawn (Smp.sched_of smp ~core:0) (fun () ->
           for _ = 1 to 20 do
             match Ukalloc.Alloc.uk_malloc view 64 with
             | Some a ->
                 incr got;
                 Ukalloc.Alloc.uk_free view a
             | None -> incr failed
           done));
    fun () ->
      failures_by_seed := (seed, !failed) :: !failures_by_seed;
      Prop.all
        [
          Prop.require (!got + !failed = 20) "allocation accounting broke";
          Prop.require (!failed = Ukfault.Faultalloc.injected_failures faulty)
            "failures not all injected ones";
        ]
  in
  (match Explore.run (Explore.config ~cores:1 ~budget:8 ~seeds:[ 1; 2; 3; 4 ] ()) fixture with
  | Explore.Passed _ -> ()
  | Explore.Failed f -> Alcotest.failf "fault-seed exploration failed: %s" f.Explore.message);
  let distinct = List.sort_uniq compare (List.map snd !failures_by_seed) in
  Alcotest.(check bool) "different seeds inject different fault patterns" true
    (List.length distinct >= 2)

(* --- lockset race detector ------------------------------------------------ *)

let test_lockset_flags_racy_counter () =
  let smp = Smp.create ~cores:2 () in
  let det = Lockset.attach smp in
  let counter = Shared.cell ~name:"racy_counter" 0 in
  for c = 0 to 1 do
    ignore
      (Sched.spawn (Smp.sched_of smp ~core:c) (fun () ->
           Uksim.Clock.advance (Smp.clock_of smp ~core:c) 500;
           Shared.update counter (fun v -> v + 1)))
  done;
  Smp.run smp;
  Lockset.detach det;
  (match Lockset.reports det with
  | [] -> Alcotest.fail "racy counter not flagged"
  | r :: _ ->
      Alcotest.(check string) "right cell" "racy_counter" r.Lockset.r_cell;
      Alcotest.(check bool) "two different threads" true
        (r.Lockset.r_first.Lockset.a_tid <> r.Lockset.r_second.Lockset.a_tid);
      Alcotest.(check bool) "one access per core" true
        (r.Lockset.r_first.Lockset.a_core <> r.Lockset.r_second.Lockset.a_core);
      Alcotest.(check bool) "at least one write" true
        (r.Lockset.r_first.Lockset.a_write || r.Lockset.r_second.Lockset.a_write);
      (* the report formats without raising *)
      ignore (Format.asprintf "%a" Lockset.pp_report r));
  Alcotest.(check bool) "accesses counted" true (Lockset.accesses det >= 4)

let test_lockset_silent_on_locked_counter () =
  let smp = Smp.create ~cores:1 () in
  let det = Lockset.attach smp in
  let counter = Shared.cell ~name:"locked_counter" 0 in
  let m = Uklock.Lock.Mutex.create ~name:"counter_lock" (Uklock.Lock.Threaded (Smp.sched_of smp ~core:0)) in
  for _ = 1 to 2 do
    ignore
      (Sched.spawn (Smp.sched_of smp ~core:0) (fun () ->
           Uklock.Lock.Mutex.lock m;
           Shared.update counter (fun v -> v + 1);
           Uklock.Lock.Mutex.unlock m))
  done;
  Smp.run smp;
  Lockset.detach det;
  Alcotest.(check int) "no reports" 0 (List.length (Lockset.reports det));
  Alcotest.(check int) "final value" 2 (Shared.peek counter);
  Alcotest.(check bool) "lock events seen" true (Lockset.lock_events det >= 4)

let test_lockset_wake_handoff_no_false_positive () =
  (* Handoff protocol with no lock at all: the producer writes, then
     wakes the consumer, which reads. The wake happens-before edge must
     keep this silent. *)
  let smp = Smp.create ~cores:2 () in
  let det = Lockset.attach smp in
  let cell = Shared.cell ~name:"handoff" 0 in
  let ctid = ref (-1) in
  ctid :=
    Sched.spawn (Smp.sched_of smp ~core:1) ~name:"consumer" (fun () ->
        Sched.block ();
        ignore (Shared.read cell));
  ignore
    (Sched.spawn (Smp.sched_of smp ~core:0) ~name:"producer" (fun () ->
         Sched.sleep_ns 100.0 (* let the consumer block first *);
         Shared.write cell 42;
         Sched.wake (Smp.sched_of smp ~core:0) !ctid));
  Smp.run smp;
  Lockset.detach det;
  (match Lockset.reports det with
  | [] -> ()
  | r :: _ -> Alcotest.fail ("false positive: " ^ Format.asprintf "%a" Lockset.pp_report r));
  Alcotest.(check bool) "ipi edge observed" true (Lockset.ipis det >= 1)

let test_lockset_silent_on_cluster_workload () =
  (* Zero false positives on a real multicore workload: the 4-core
     cluster smoke with the detector attached must report nothing, and
     attaching must not change the run (same trace hash as detached). *)
  let run_cluster ~detect =
    let c = Ukapps.Cluster.create ~n:4 () in
    let det = if detect then Some (Lockset.attach (Ukapps.Cluster.smp c)) else None in
    let transport = Ukapps.Serve.Socket in
    ignore (Ukapps.Cluster.add_httpd c ~transport (Ukapps.Httpd.In_memory [ ("/x", "ok") ]));
    let r =
      Ukapps.Cluster.run_load c ~transport ~port:80 ~connections_per_core:2 ~requests_per_core:40
        (Ukapps.Httpd.client ~path:"/x" ())
    in
    Alcotest.(check int) "no http errors" 0 r.Ukapps.Load.errors;
    Option.iter Lockset.detach det;
    (Ukapps.Cluster.trace_hash c, det)
  in
  let h_plain, _ = run_cluster ~detect:false in
  let h_detect, det = run_cluster ~detect:true in
  Alcotest.(check int) "detector does not perturb the run" h_plain h_detect;
  match det with
  | None -> assert false
  | Some det ->
      Alcotest.(check int) "zero false positives" 0 (List.length (Lockset.reports det))

let test_lockset_exclusive_attach () =
  let smp = Smp.create ~cores:1 () in
  let det = Lockset.attach smp in
  Alcotest.(check bool) "second attach rejected" true
    (try
       ignore (Lockset.attach smp);
       false
     with Invalid_argument _ -> true);
  Lockset.detach det;
  Lockset.detach det (* idempotent *);
  let det2 = Lockset.attach smp in
  Lockset.detach det2

(* --- property harness ----------------------------------------------------- *)

let test_prop_check_passes () =
  Prop.check ~cores:2 ~schedules:32 ~name:"increments all land"
    (fun smp ~seed:_ ->
      let n = ref 0 in
      for c = 0 to 1 do
        ignore (Sched.spawn (Smp.sched_of smp ~core:c) (fun () -> incr n))
      done;
      fun () -> Prop.require (!n = 2) "lost an increment")

(* Five threads on two cores contend for one mutex (equal sleeps inside
   the critical section keep the cores' clocks tied, so step-order and
   dispatch choice points stay plentiful); every explored handoff order
   must still run all five critical sections exactly once,
   deadlock-free. *)
let test_prop_uklock_mutex () =
  Prop.check ~cores:2 ~schedules:64 ~name:"uklock mutex (2 cores, 5 threads)"
    (fun smp ~seed:_ ->
      let m =
        Uklock.Lock.Mutex.create ~name:"explored" (Uklock.Lock.Threaded (Smp.sched_of smp ~core:0))
      in
      let count = ref 0 in
      List.iter
        (fun core ->
          ignore
            (Sched.spawn (Smp.sched_of smp ~core) (fun () ->
                 Sched.yield ();
                 Uklock.Lock.Mutex.lock m;
                 let v = !count in
                 Sched.sleep_ns 50.0;
                 count := v + 1;
                 Uklock.Lock.Mutex.unlock m)))
        [ 0; 0; 0; 1; 1 ];
      fun () -> Prop.require (!count = 5) (Printf.sprintf "mutex lost updates: %d/5" !count))

(* Three threads per core hammer the per-core arena; every interleaving
   must keep concurrently-held addresses disjoint and leak nothing. *)
let test_prop_percore_arena () =
  Prop.check ~cores:2 ~schedules:64 ~name:"percore arena (2 cores, 6 threads)"
    (fun smp ~seed:_ ->
      let clocks = Array.init 2 (fun i -> Smp.clock_of smp ~core:i) in
      let backend =
        Ukalloc.Tlsf.create ~clock:(Uksim.Clock.create ()) ~base:(1 lsl 20) ~len:(1 lsl 20)
      in
      let arena = Ukalloc.Percore.create ~clocks ~backend ~batch:4 () in
      let bad = ref None in
      let held : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let note e = if !bad = None then bad := Some e in
      for core = 0 to 1 do
        let view = Ukalloc.Percore.view arena ~core in
        for _ = 0 to 2 do
          ignore
            (Sched.spawn (Smp.sched_of smp ~core) (fun () ->
                 for _ = 1 to 3 do
                   match Ukalloc.Alloc.uk_malloc view 96 with
                   | None -> note "arena oom"
                   | Some a ->
                       if Hashtbl.mem held a then note "address handed out twice";
                       Hashtbl.add held a ();
                       Sched.sleep_ns 50.0;
                       Hashtbl.remove held a;
                       Ukalloc.Alloc.uk_free view a
                 done))
        done
      done;
      fun () ->
        match !bad with
        | Some e -> Error e
        | None -> Prop.require (Hashtbl.length held = 0) "allocations leaked")

let test_prop_check_raises_with_cert () =
  match Prop.check ~cores:1 ~schedules:64 ~name:"lost wakeup" lost_wakeup_fixture with
  | () -> Alcotest.fail "Prop.check missed the planted bug"
  | exception Failure msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("message names the bug: " ^ msg) true (contains msg "deadlock");
      Alcotest.(check bool) "message carries the certificate" true
        (contains msg "replay certificate: seed=")

let suite =
  [
    Alcotest.test_case "explorer finds planted lost wakeup" `Quick test_explorer_finds_lost_wakeup;
    Alcotest.test_case "shrinking yields the one-decision certificate" `Quick
      test_shrunk_cert_is_minimal;
    Alcotest.test_case "certificate replays byte-identically" `Quick
      test_cert_replays_byte_identically;
    Alcotest.test_case "certificate string roundtrip" `Quick test_cert_string_roundtrip;
    Alcotest.test_case "explorer passes the corrected fixture" `Quick
      test_explorer_passes_correct_code;
    Alcotest.test_case "explored seeds vary fault injection" `Quick test_explored_fault_seeds;
    Alcotest.test_case "lockset flags a racy counter" `Quick test_lockset_flags_racy_counter;
    Alcotest.test_case "lockset silent on the locked counter" `Quick
      test_lockset_silent_on_locked_counter;
    Alcotest.test_case "lockset respects wake happens-before" `Quick
      test_lockset_wake_handoff_no_false_positive;
    Alcotest.test_case "lockset silent on 4-core cluster smoke" `Quick
      test_lockset_silent_on_cluster_workload;
    Alcotest.test_case "one detector at a time" `Quick test_lockset_exclusive_attach;
    Alcotest.test_case "prop: invariant holds across schedules" `Quick test_prop_check_passes;
    Alcotest.test_case "prop: uklock mutex over 64 schedules" `Quick test_prop_uklock_mutex;
    Alcotest.test_case "prop: percore arena over 64 schedules" `Quick test_prop_percore_arena;
    Alcotest.test_case "prop: violation raises with certificate" `Quick
      test_prop_check_raises_with_cert;
  ]
