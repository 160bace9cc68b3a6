(* Tests for the simulation substrate: clock, RNG, heap, engine, stats. *)

open Uksim

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.cycles c);
  Clock.advance c 360;
  Alcotest.(check int) "advance" 360 (Clock.cycles c);
  Alcotest.(check (float 0.001)) "ns conversion at 3.6GHz" 100.0 (Clock.ns c);
  Clock.advance_ns c 100.0;
  Alcotest.(check int) "advance_ns rounds up" 720 (Clock.cycles c);
  Clock.reset c;
  Alcotest.(check int) "reset" 0 (Clock.cycles c)

let test_clock_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative advance" (Invalid_argument "Clock.advance: negative cycles")
    (fun () -> Clock.advance c (-1))

let test_clock_span () =
  let c = Clock.create () in
  Clock.advance c 100;
  let s = Clock.start c in
  Clock.advance c 250;
  Alcotest.(check int) "span cycles" 250 (Clock.elapsed_cycles c s)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    if v < 5 || v > 9 then Alcotest.failf "int_in out of bounds: %d" v
  done;
  for _ = 1 to 100 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xa = Rng.next a and xb = Rng.next b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_errors () =
  let r = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose r [||]))

let test_heapq_order () =
  let h = Heapq.create () in
  List.iter
    (fun (k, v) -> ignore (Heapq.push h k v))
    [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let out = ref [] in
  let rec drain () =
    match Heapq.pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !out)

let test_heapq_fifo_ties () =
  let h = Heapq.create () in
  List.iter (fun v -> ignore (Heapq.push h 1 v)) [ "first"; "second"; "third" ];
  let take () = match Heapq.pop h with Some (_, v) -> v | None -> "" in
  let a = take () in
  let b = take () in
  let c = take () in
  Alcotest.(check (list string)) "FIFO among equal keys" [ "first"; "second"; "third" ]
    [ a; b; c ]

(* Random push/cancel/pop interleavings against a model: the live
   entries as a list of (key, insertion number), sorted. Every pop must
   return the model's head, and [length] must equal the model's size
   after every operation, across the rebuilds that many cancels force.
   Op 0 pushes [arg] as the key, op 1 cancels the [arg]-th entry pushed
   so far (popped and already-cancelled ones included), op 2 pops. *)
let heapq_sorts_prop =
  QCheck.Test.make ~name:"heapq pops in nondecreasing key order" ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (pair (int_bound 2) (int_bound 40)))
    (fun ops ->
      let h = Heapq.create () in
      let pushed = ref [||] and model = ref [] in
      let step (op, arg) =
        (match op with
        | 0 ->
            let n = Array.length !pushed in
            pushed := Array.append !pushed [| Heapq.push h arg n |];
            model := List.merge compare !model [ (arg, n) ]
        | 1 when Array.length !pushed > 0 ->
            let n = arg mod Array.length !pushed in
            Heapq.cancel h !pushed.(n);
            model := List.filter (fun (_, m) -> m <> n) !model
        | _ -> (
            match (Heapq.pop h, !model) with
            | None, [] -> ()
            | Some (k, n), (k', n') :: rest when k = k' && n = n' -> model := rest
            | _ -> QCheck.Test.fail_report "pop disagrees with the model"));
        Heapq.length h = List.length !model
      in
      let rec drain () =
        match (Heapq.pop h, !model) with
        | None, [] -> true
        | Some (k, n), (k', n') :: rest when k = k' && n = n' ->
            model := rest;
            drain ()
        | _ -> false
      in
      List.for_all step ops && drain ())

let test_engine_ordering () =
  let c = Clock.create () in
  let e = Engine.create c in
  let log = ref [] in
  Engine.after e 100 (fun () -> log := "b" :: !log);
  Engine.after e 50 (fun () -> log := "a" :: !log);
  Engine.after e 150 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 150 (Clock.cycles c)

let test_engine_until () =
  let c = Clock.create () in
  let e = Engine.create c in
  let fired = ref 0 in
  Engine.after e 100 (fun () -> incr fired);
  Engine.after e 300 (fun () -> incr fired);
  Engine.run ~until:200 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "clock advanced to limit" 200 (Clock.cycles c);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "second fired" 2 !fired

let test_engine_cascade () =
  let c = Clock.create () in
  let e = Engine.create c in
  let log = ref [] in
  Engine.after e 10 (fun () ->
      log := 1 :: !log;
      Engine.after e 10 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "events can schedule events" [ 1; 2 ] (List.rev !log);
  Alcotest.(check int) "cascade timing" 20 (Clock.cycles c)

let test_engine_past () =
  let c = Clock.create () in
  let e = Engine.create c in
  Clock.advance c 100;
  Alcotest.check_raises "past event rejected" (Invalid_argument "Engine.at: event in the past")
    (fun () -> Engine.at e 50 (fun () -> ()))

let test_engine_after_edges () =
  let c = Clock.create () in
  let e = Engine.create c in
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Engine.after: negative delay") (fun () ->
      Engine.after e (-1) (fun () -> ()));
  Alcotest.(check int) "nothing was scheduled" 0 (Engine.pending e);
  (* Zero delay is valid: fires at the current cycle. *)
  let fired = ref false in
  Engine.after e 0 (fun () -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "zero-delay event fired" true !fired;
  Alcotest.(check int) "clock did not move" 0 (Clock.cycles c);
  (* [at] exactly at the current cycle is valid too (only the strict past
     raises). *)
  Clock.advance c 10;
  Engine.at e 10 (fun () -> ());
  Alcotest.(check int) "boundary event accepted" 1 (Engine.pending e)

let test_engine_cancel () =
  let c = Clock.create () in
  let e = Engine.create c in
  let log = ref [] in
  let a = Engine.arm e 50 (fun () -> log := "a" :: !log) in
  let b = Engine.arm e 100 (fun () -> log := "b" :: !log) in
  Engine.after e 30 (fun () -> log := "c" :: !log);
  Engine.cancel e b;
  Alcotest.(check int) "pending counts live events only" 2 (Engine.pending e);
  Engine.cancel e b;
  Alcotest.(check int) "cancelling twice does nothing" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "cancelled event never ran" [ "c"; "a" ] (List.rev !log);
  Alcotest.(check int) "cancelled event did not advance the clock" 50 (Clock.cycles c);
  Engine.cancel e a;
  Alcotest.(check int) "cancelling a fired event does nothing" 0 (Engine.pending e);
  ignore (Engine.arm e 10 (fun () -> log := "d" :: !log));
  Alcotest.(check int) "later events still counted" 1 (Engine.pending e);
  Alcotest.(check (option int)) "next_at sees the live event" (Some 60) (Engine.next_at e);
  Engine.run e;
  Alcotest.(check (list string)) "later event ran" [ "c"; "a"; "d" ] (List.rev !log)

let test_engine_cancel_head () =
  (* The earliest event cancelled: [next_at] and [run ~until] skip it. *)
  let c = Clock.create () in
  let e = Engine.create c in
  let fired = ref 0 in
  let first = Engine.arm e 100 (fun () -> incr fired) in
  ignore (Engine.arm e 300 (fun () -> incr fired));
  Engine.cancel e first;
  Alcotest.(check (option int)) "next_at skips the cancelled head" (Some 300) (Engine.next_at e);
  Engine.run ~until:200 e;
  Alcotest.(check int) "nothing fired before the limit" 0 !fired;
  Alcotest.(check int) "clock at the limit" 200 (Clock.cycles c);
  Alcotest.check_raises "negative delay rejected" (Invalid_argument "Engine.arm: negative delay")
    (fun () -> ignore (Engine.arm e (-1) (fun () -> ())));
  Engine.run e;
  Alcotest.(check int) "live event fired" 1 !fired

(* The engine's heap is the system's one timer queue: every timeout is an
   event on it, and TCP arms its retransmit timer with [arm] and cancels
   it whenever the deadline moves. The tests below pin the timer
   semantics those callers rely on. *)

let test_engine_not_early () =
  let c = Clock.create () in
  let e = Engine.create c in
  let hit = ref false in
  ignore (Engine.arm e 1_000_000 (fun () -> hit := true));
  Engine.run ~until:999_999 e;
  Alcotest.(check bool) "not fired a cycle early" false !hit;
  Alcotest.(check int) "still pending" 1 (Engine.pending e);
  Engine.run ~until:1_100_000 e;
  Alcotest.(check bool) "fired at its deadline" true !hit;
  Alcotest.(check int) "clock at the limit" 1_100_000 (Clock.cycles c)

let test_engine_rearm_periodic () =
  let c = Clock.create () in
  let e = Engine.create c in
  let at = ref [] in
  let rec tick () =
    at := Clock.cycles c :: !at;
    if List.length !at < 5 then ignore (Engine.arm e 10_000 tick)
  in
  ignore (Engine.arm e 10_000 tick);
  Engine.run ~until:100_000 e;
  Alcotest.(check (list int)) "five periods, exactly spaced"
    [ 10_000; 20_000; 30_000; 40_000; 50_000 ] (List.rev !at);
  Alcotest.(check int) "nothing left armed" 0 (Engine.pending e)

let test_engine_rearm_cancels_previous () =
  (* A retransmit timer as TCP runs it: each send pushes the deadline out
     by cancelling the armed timer and arming a fresh one. Only the last
     one fires. *)
  let c = Clock.create () in
  let e = Engine.create c in
  let fired = ref [] in
  let rto = ref None in
  let rearm d =
    Option.iter (Engine.cancel e) !rto;
    rto := Some (Engine.arm e d (fun () -> fired := Clock.cycles c :: !fired))
  in
  rearm 1_000;
  Engine.after e 400 (fun () -> rearm 1_000);
  Engine.after e 900 (fun () -> rearm 1_000);
  Engine.run e;
  Alcotest.(check (list int)) "only the last deadline fired" [ 1_900 ] !fired;
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let test_engine_cancel_same_cycle () =
  (* Events at one cycle run in arming order, and one of them may cancel
     a later one of the same cycle. *)
  let c = Clock.create () in
  let e = Engine.create c in
  let log = ref [] in
  let victim = ref None in
  ignore
    (Engine.arm e 100 (fun () ->
         log := "first" :: !log;
         Option.iter (Engine.cancel e) !victim));
  victim := Some (Engine.arm e 100 (fun () -> log := "victim" :: !log));
  ignore (Engine.arm e 100 (fun () -> log := "third" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "victim never ran" [ "first"; "third" ] (List.rev !log);
  Alcotest.(check int) "clock at the shared cycle" 100 (Clock.cycles c)

let test_engine_all_cancelled () =
  let c = Clock.create () in
  let e = Engine.create c in
  let timers = List.map (fun d -> Engine.arm e d (fun () -> Alcotest.fail "ran")) [ 10; 20; 30 ] in
  List.iter (Engine.cancel e) timers;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Alcotest.(check (option int)) "no next event" None (Engine.next_at e);
  Alcotest.(check bool) "step finds nothing" false (Engine.step e);
  Engine.run e;
  Alcotest.(check int) "cancelled events never advance the clock" 0 (Clock.cycles c);
  Engine.run ~until:500 e;
  Alcotest.(check int) "run ~until still reaches its limit" 500 (Clock.cycles c)

let engine_timer_model_prop =
  QCheck.Test.make ~name:"engine fires exactly the live timers a sorted model fires" ~count:200
    QCheck.(pair (list (pair (int_bound 2_000) bool)) (int_bound 2_500))
    (fun (timers, horizon) ->
      (* Each (delay, cancelled) is armed at cycle 0, in list order. *)
      let c = Clock.create () in
      let e = Engine.create c in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (d, _) -> Engine.arm e d (fun () -> fired := (i, Clock.cycles c) :: !fired))
          timers
      in
      List.iter2 (fun h (_, cancelled) -> if cancelled then Engine.cancel e h) handles timers;
      Engine.run ~until:horizon e;
      let live =
        List.concat
          (List.mapi (fun i (d, cancelled) -> if cancelled then [] else [ (i, d) ]) timers)
      in
      (* Deadline order; ties in arming order (a stable sort keeps it). *)
      let model =
        List.stable_sort
          (fun (_, a) (_, b) -> compare a b)
          (List.filter (fun (_, d) -> d <= horizon) live)
      in
      List.rev !fired = model
      && Engine.pending e = List.length live - List.length model
      && Clock.cycles c = horizon)

let test_engine_many_timers () =
  let c = Clock.create () in
  let e = Engine.create c in
  let fired = ref 0 in
  let timers = Array.init 50_000 (fun i -> Engine.arm e ((i + 1) * 100) (fun () -> incr fired)) in
  Array.iteri (fun i t -> if i mod 2 = 0 then Engine.cancel e t) timers;
  Alcotest.(check int) "half pending" 25_000 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "the uncancelled half fired" 25_000 !fired;
  Alcotest.(check int) "clock at the last live deadline" 5_000_000 (Clock.cycles c)

let test_engine_observer () =
  (* The observer sees the cycles each closure consumed, not the idle
     advance to the event's timestamp. *)
  let c = Clock.create () in
  let e = Engine.create c in
  let seen = ref [] in
  Engine.set_observer e (Some (fun cycles -> seen := cycles :: !seen));
  Engine.after e 100 (fun () -> Clock.advance c 30);
  Engine.after e 200 (fun () -> ());
  Engine.run e;
  Alcotest.(check (list int)) "per-event cycles" [ 30; 0 ] (List.rev !seen);
  Engine.set_observer e None;
  Engine.after e 50 (fun () -> Clock.advance c 7);
  Engine.run e;
  Alcotest.(check int) "detached observer sees nothing" 2 (List.length !seen);
  Alcotest.(check int) "clock" 257 (Clock.cycles c)

let test_engine_run_for_ns () =
  let c = Clock.create () in
  let e = Engine.create c in
  let fired = ref [] in
  Engine.after_ns e 500.0 (fun () -> fired := 500 :: !fired);
  Engine.after_ns e 1_500.0 (fun () -> fired := 1_500 :: !fired);
  Engine.run_for_ns e 1_000.0;
  Alcotest.(check (list int)) "only the event inside the window" [ 500 ] !fired;
  Alcotest.(check int) "clock at the window's end" (Clock.cycles_of_ns 1_000.0) (Clock.cycles c);
  Engine.run_for_ns e 1_000.0;
  Alcotest.(check (list int)) "next window" [ 1_500; 500 ] !fired

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.01)) "mean" 50.5 (Stats.mean s);
  Alcotest.(check (float 0.01)) "median" 50.5 (Stats.median s);
  Alcotest.(check (float 0.5)) "p99" 99.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 0.01)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 0.01)) "max" 100.0 (Stats.max s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean of empty is nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check int) "count" 0 (Stats.count s)

let test_stats_throughput () =
  Alcotest.(check (float 0.01)) "1000 events in 1ms = 1M/s" 1_000_000.0
    (Stats.throughput_per_sec ~events:1000 ~elapsed_ns:1e6)

let test_units () =
  Alcotest.(check int) "kib" 2048 (Units.kib 2);
  Alcotest.(check string) "pp_bytes MB" "1.4MB" (Fmt.str "%a" Units.pp_bytes 1468006);
  Alcotest.(check string) "pp_ns ms" "3.00ms" (Fmt.str "%a" Units.pp_ns 3.0e6)

let test_cost_table1 () =
  (* The paper's Table 1 anchors. *)
  Alcotest.(check int) "function call = 4 cycles" 4 Cost.function_call;
  Alcotest.(check int) "unikraft syscall = 84" 84 Cost.syscall_unikraft;
  Alcotest.(check int) "linux syscall = 222" 222 Cost.syscall_linux;
  Alcotest.(check int) "linux no-mitigations = 154" 154 Cost.syscall_linux_nomitig

let suite =
  [
    Alcotest.test_case "clock basics" `Quick test_clock_basics;
    Alcotest.test_case "clock rejects negative" `Quick test_clock_negative;
    Alcotest.test_case "clock spans" `Quick test_clock_span;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng errors" `Quick test_rng_errors;
    Alcotest.test_case "heapq ordering" `Quick test_heapq_order;
    Alcotest.test_case "heapq FIFO ties" `Quick test_heapq_fifo_ties;
    QCheck_alcotest.to_alcotest heapq_sorts_prop;
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine cascade" `Quick test_engine_cascade;
    Alcotest.test_case "engine rejects past" `Quick test_engine_past;
    Alcotest.test_case "engine after: negative/zero edges" `Quick test_engine_after_edges;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine cancel of the earliest event" `Quick test_engine_cancel_head;
    Alcotest.test_case "engine arm never fires early" `Quick test_engine_not_early;
    Alcotest.test_case "engine re-arm from the callback" `Quick test_engine_rearm_periodic;
    Alcotest.test_case "engine re-arm cancels the previous timer" `Quick
      test_engine_rearm_cancels_previous;
    Alcotest.test_case "engine cancel from a same-cycle event" `Quick test_engine_cancel_same_cycle;
    Alcotest.test_case "engine with every event cancelled" `Quick test_engine_all_cancelled;
    QCheck_alcotest.to_alcotest engine_timer_model_prop;
    Alcotest.test_case "engine 50k timers, half cancelled" `Quick test_engine_many_timers;
    Alcotest.test_case "engine observer sees per-event cycles" `Quick test_engine_observer;
    Alcotest.test_case "engine run_for_ns windows" `Quick test_engine_run_for_ns;
    Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats throughput" `Quick test_stats_throughput;
    Alcotest.test_case "units formatting" `Quick test_units;
    Alcotest.test_case "cost table anchors (Table 1)" `Quick test_cost_table1;
  ]
