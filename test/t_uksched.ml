(* Tests for the cooperative scheduler: interleaving, blocking, sleeping,
   deadlock detection, daemon threads. *)

open Uksched

let env () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  (clock, engine)

let test_coop_interleaving () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let log = Buffer.create 32 in
  let thread tag () =
    for i = 1 to 3 do
      Buffer.add_string log (Printf.sprintf "%s%d " tag i);
      Sched.yield ()
    done
  in
  ignore (Sched.spawn s ~name:"a" (thread "a"));
  ignore (Sched.spawn s ~name:"b" (thread "b"));
  Sched.run s;
  Alcotest.(check string) "round robin" "a1 b1 a2 b2 a3 b3 " (Buffer.contents log)

let test_run_to_completion_without_yield () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let log = Buffer.create 8 in
  ignore (Sched.spawn s (fun () -> Buffer.add_string log "A"));
  ignore (Sched.spawn s (fun () -> Buffer.add_string log "B"));
  Sched.run s;
  Alcotest.(check string) "cooperative = run to yield/exit" "AB" (Buffer.contents log)

let test_sleep_orders_by_time () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let log = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep_ns 2000.0;
         log := "late" :: !log));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep_ns 500.0;
         log := "early" :: !log));
  Sched.run s;
  Alcotest.(check (list string)) "wakeup order" [ "early"; "late" ] (List.rev !log);
  Alcotest.(check bool) "clock advanced by sleeps" true (Uksim.Clock.ns clock >= 2000.0)

let test_block_wake () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let state = ref "init" in
  let blocked_tid = ref 0 in
  blocked_tid :=
    Sched.spawn s ~name:"blocked" (fun () ->
        state := "blocked";
        Sched.block ();
        state := "woken");
  ignore
    (Sched.spawn s ~name:"waker" (fun () ->
         Sched.yield ();
         Sched.wake s !blocked_tid));
  Sched.run s;
  Alcotest.(check string) "woken" "woken" !state

let test_deadlock_detection () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  ignore (Sched.spawn s ~name:"stuck" (fun () -> Sched.block ()));
  match Sched.run s with
  | () -> Alcotest.fail "deadlock not detected"
  | exception Sched.Deadlock names ->
      Alcotest.(check (list string)) "stuck thread named" [ "stuck" ] names

let test_daemon_not_deadlock () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  ignore (Sched.spawn s ~name:"service" ~daemon:true (fun () -> Sched.block ()));
  ignore (Sched.spawn s ~name:"main" (fun () -> ()));
  Sched.run s (* must return, not raise *)

let test_exit_thread () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let log = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         log := "before" :: !log;
         Sched.exit_thread () |> ignore));
  Sched.run s;
  Alcotest.(check (list string)) "code after exit unreached" [ "before" ] !log;
  Alcotest.(check int) "thread exited" 0 (Sched.alive s)

let test_self_and_names () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let seen = ref (-1) in
  let tid = Sched.spawn s ~name:"me" (fun () -> seen := Sched.self ()) in
  Sched.run s;
  Alcotest.(check int) "self" tid !seen;
  Alcotest.(check (option string)) "name lookup" (Some "me") (Sched.thread_name s tid)

let test_spawn_from_thread () =
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let log = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         log := "parent" :: !log;
         ignore (Sched.spawn s (fun () -> log := "child" :: !log))));
  Sched.run s;
  Alcotest.(check (list string)) "child ran" [ "parent"; "child" ] (List.rev !log)

let test_many_switches_constant_stack () =
  (* The trampoline must survive a context-switch count that would blow a
     recursive scheduler's stack. *)
  let clock, engine = env () in
  let s = Sched.create_cooperative ~clock ~engine in
  let n = ref 0 in
  let worker () =
    for _ = 1 to 50_000 do
      incr n;
      Sched.yield ()
    done
  in
  ignore (Sched.spawn s worker);
  ignore (Sched.spawn s worker);
  Sched.run s;
  Alcotest.(check int) "100k yields" 100_000 !n

let suite =
  [
    Alcotest.test_case "cooperative interleaving" `Quick test_coop_interleaving;
    Alcotest.test_case "run-to-exit without yields" `Quick test_run_to_completion_without_yield;
    Alcotest.test_case "sleep ordering" `Quick test_sleep_orders_by_time;
    Alcotest.test_case "block and wake" `Quick test_block_wake;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "daemons don't deadlock" `Quick test_daemon_not_deadlock;
    Alcotest.test_case "exit_thread" `Quick test_exit_thread;
    Alcotest.test_case "self and names" `Quick test_self_and_names;
    Alcotest.test_case "spawn from thread" `Quick test_spawn_from_thread;
    Alcotest.test_case "50k context switches" `Quick test_many_switches_constant_stack;
  ]
