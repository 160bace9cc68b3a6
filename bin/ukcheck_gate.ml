(* CI gate for the ukcheck correctness tooling.

   Runs (a) the lockset race detector over the 4-core cluster smoke —
   any report fails the gate, and a planted-race positive control
   guards against a silently-dead detector — and (b) the schedule
   explorer over uklock mutex and ukalloc.Percore fixtures with a
   64-schedule budget, failing on any violation and printing the
   schedule counts for the CI log. *)

module Smp = Uksmp.Smp
module Explore = Ukcheck.Explore
module Lockset = Ukcheck.Lockset
module Shared = Ukcheck.Shared
module Schedule = Ukcheck.Schedule
module Sched = Uksched.Sched

let failures = ref 0

let fail fmt = Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL: %s\n%!" s) fmt
let info fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

(* --- positive control: the detector must flag a planted race ------------- *)

let planted_race () =
  let smp = Smp.create ~cores:2 () in
  let det = Lockset.attach smp in
  let cell = Shared.cell ~name:"planted" 0 in
  for c = 0 to 1 do
    ignore
      (Smp.spawn_on smp ~core:c ~pinned:true (fun () ->
           Smp.charge smp 100;
           Shared.update cell (fun v -> v + 1)))
  done;
  Smp.run smp;
  Lockset.detach det;
  match Lockset.reports det with
  | [] -> fail "lockset: planted race not detected (detector dead?)"
  | _ :: _ -> info "lockset: planted-race positive control fires"

(* --- negative control: silent on the real 4-core cluster smoke ----------- *)

let cluster_smoke () =
  let c = Ukapps.Cluster.create ~seed:11 ~n:4 () in
  let det = Lockset.attach (Ukapps.Cluster.smp c) in
  let transport = Ukapps.Serve.Socket in
  ignore (Ukapps.Cluster.add_httpd c ~transport (Ukapps.Httpd.In_memory [ ("/x", "ok") ]));
  let r =
    Ukapps.Cluster.run_httpd_load c ~transport ~connections_per_core:2 ~requests_per_core:50
      ~path:"/x" ()
  in
  Lockset.detach det;
  if r.Ukapps.Wrk.errors <> 0 then fail "lockset: cluster smoke had %d http errors" r.Ukapps.Wrk.errors;
  (match Lockset.reports det with
  | [] ->
      info "lockset: 4-core cluster smoke: 0 violations (%d lock events, %d ipis)"
        (Lockset.lock_events det) (Lockset.ipis det)
  | reports ->
      List.iter
        (fun rep -> fail "lockset: %s" (Format.asprintf "%a" Lockset.pp_report rep))
        reports)

(* --- explorer fixtures ---------------------------------------------------- *)

let report_explore name = function
  | Explore.Passed s ->
      info "explorer: %s: passed %d schedules%s" name s.Explore.schedules
        (if s.Explore.exhaustive then " (exhaustive)" else "")
  | Explore.Failed f ->
      fail "explorer: %s: %s after %d schedules — replay with %s" name f.Explore.message
        f.Explore.found_after
        (Schedule.to_string f.Explore.cert)

(* Five threads on two cores contend for one mutex (equal sleeps inside
   the critical section keep the cores' clocks tied, so step-order and
   dispatch choice points stay plentiful); every explored handoff order
   must still run all five critical sections exactly once,
   deadlock-free. *)
let uklock_fixture smp ~seed:_ =
  let m = Uklock.Lock.Mutex.create ~name:"gate" (Uklock.Lock.Threaded (Smp.sched_of smp ~core:0)) in
  let count = ref 0 in
  let spawn core =
    ignore
      (Smp.spawn_on smp ~core ~pinned:true (fun () ->
           Sched.yield ();
           Uklock.Lock.Mutex.lock m;
           let v = !count in
           Sched.sleep_ns 50.0;
           count := v + 1;
           Uklock.Lock.Mutex.unlock m))
  in
  spawn 0;
  spawn 0;
  spawn 0;
  spawn 1;
  spawn 1;
  fun () ->
    if !count = 5 then Ok () else Error (Printf.sprintf "mutex lost updates: %d/5" !count)

(* Two threads per core hammer the per-core arena; every interleaving
   must keep concurrently-held addresses disjoint and leak nothing. *)
let percore_fixture smp ~seed:_ =
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
    for _t = 0 to 2 do
      ignore
        (Smp.spawn_on smp ~core ~pinned:true (fun () ->
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
    | None -> if Hashtbl.length held = 0 then Ok () else Error "allocations leaked"

let () =
  info "== ukcheck gate ==";
  planted_race ();
  cluster_smoke ();
  report_explore "uklock mutex (2 cores, 5 threads)"
    (Explore.run (Explore.config ~cores:2 ~budget:64 ()) uklock_fixture);
  report_explore "percore arena (2 cores, 6 threads)"
    (Explore.run (Explore.config ~cores:2 ~budget:64 ()) percore_fixture);
  if !failures > 0 then begin
    info "== ukcheck gate: %d failure(s) ==" !failures;
    exit 1
  end;
  info "== ukcheck gate ok =="
