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
    Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats throughput" `Quick test_stats_throughput;
    Alcotest.test_case "units formatting" `Quick test_units;
    Alcotest.test_case "cost table anchors (Table 1)" `Quick test_cost_table1;
  ]
