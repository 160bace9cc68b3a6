(* Tests for the uktrace metrics registry, tracepoints and the
   determinism guarantee. *)

module M = Uktrace.Metric
module Source = Uktrace.Source
module Registry = Uktrace.Registry
module Tracer = Uktrace.Tracer
module Cluster = Ukapps.Cluster

let count = function Some (M.Count n) -> n | _ -> Alcotest.fail "expected a Count sample"

(* --- metric primitives --------------------------------------------------- *)

let test_counter_gauge () =
  let c = M.Counter.create () in
  M.Counter.incr c;
  M.Counter.add c 41;
  Alcotest.(check int) "counter" 42 (M.Counter.get c);
  Alcotest.(check bool) "counter value" true (M.Counter.value c = M.Count 42);
  M.Counter.reset c;
  Alcotest.(check int) "counter reset" 0 (M.Counter.get c);
  let g = M.Gauge.create () in
  M.Gauge.set g 3.5;
  M.Gauge.add g 1.0;
  Alcotest.(check (float 1e-9)) "gauge" 4.5 (M.Gauge.get g);
  (* diff semantics: counters subtract, gauges keep the newer reading *)
  Alcotest.(check bool) "count diff" true
    (M.diff_value ~before:(M.Count 10) ~after:(M.Count 42) = M.Count 32);
  Alcotest.(check bool) "level diff keeps after" true
    (M.diff_value ~before:(M.Level 10.0) ~after:(M.Level 4.5) = M.Level 4.5)

let test_histogram_edges () =
  let h = M.Histogram.create () in
  (* bucket 0: non-positive; bucket 1+floor(log2 v) otherwise, clamped *)
  Alcotest.(check int) "bucket of 0" 0 (M.Histogram.bucket_of 0);
  Alcotest.(check int) "bucket of -5" 0 (M.Histogram.bucket_of (-5));
  Alcotest.(check int) "bucket of 1" 1 (M.Histogram.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 2 (M.Histogram.bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (M.Histogram.bucket_of 3);
  Alcotest.(check int) "max_int clamps to last bucket" (M.Histogram.n_buckets - 1)
    (M.Histogram.bucket_of max_int);
  M.Histogram.observe h 0;
  M.Histogram.observe h 1;
  M.Histogram.observe h max_int;
  Alcotest.(check int) "count" 3 (M.Histogram.count h);
  Alcotest.(check int) "max tracks largest" max_int (M.Histogram.max h);
  Alcotest.(check int) "bucket 0 holds the zero" 1 (M.Histogram.bucket_count h 0);
  Alcotest.(check int) "bucket 1 holds the one" 1 (M.Histogram.bucket_count h 1);
  Alcotest.(check int) "last bucket holds max_int" 1
    (M.Histogram.bucket_count h (M.Histogram.n_buckets - 1));
  (* bucket bounds partition the axis: every bucket's hi + 1 = next lo *)
  for b = 1 to M.Histogram.n_buckets - 2 do
    let _, hi = M.Histogram.bucket_bounds b in
    let lo', _ = M.Histogram.bucket_bounds (b + 1) in
    Alcotest.(check int) (Printf.sprintf "bucket %d/%d contiguous" b (b + 1)) (hi + 1) lo'
  done;
  M.Histogram.reset h;
  Alcotest.(check int) "reset empties" 0 (M.Histogram.count h)

(* --- registry ------------------------------------------------------------ *)

let mk_src ?reset ~subsystem ~name cell =
  Source.make ~subsystem ~name ?reset (fun () -> [ ("n", M.Count !cell) ])

let test_registry_register_diff () =
  Registry.clear ();
  let a = ref 0 in
  Registry.register (mk_src ~subsystem:"regtest" ~name:"a" a);
  a := 2;
  let before = Registry.snapshot () in
  a := 9;
  let after = Registry.snapshot () in
  let d = Registry.diff ~before ~after in
  Alcotest.(check int) "window delta" 7 (count (Registry.find_sample d "regtest.a" "n"));
  (* duplicate ids get a #n suffix instead of colliding *)
  let b = ref 5 in
  Registry.register (mk_src ~subsystem:"regtest" ~name:"a" b);
  let s = Registry.snapshot () in
  Alcotest.(check int) "deduped uid" 5 (count (Registry.find_sample s "regtest.a#2" "n"));
  Registry.clear ()

let test_registry_clear_generations () =
  (* The trap this guards: an experiment snapshots, a trial boundary
     clears the registry, a recreated component reuses the uid — the
     diff must NOT subtract the dead instance's counts from the new
     one's. *)
  Registry.clear ();
  let a = ref 5 in
  Registry.register (mk_src ~subsystem:"gentest" ~name:"s" a);
  let before = Registry.snapshot () in
  Registry.clear ();
  let a' = ref 3 in
  Registry.register (mk_src ~subsystem:"gentest" ~name:"s" a');
  let after = Registry.snapshot () in
  let d = Registry.diff ~before ~after in
  Alcotest.(check int) "no cross-trial subtraction" 3
    (count (Registry.find_sample d "gentest.s" "n"));
  Registry.clear ()

let test_registry_sticky_reset () =
  Registry.clear ();
  let a = ref 7 in
  let resets = ref 0 in
  Registry.register ~sticky:true
    (mk_src ~subsystem:"sticky" ~name:"s" ~reset:(fun () -> incr resets; a := 0) a);
  Registry.register (mk_src ~subsystem:"plain" ~name:"s" (ref 1));
  Registry.reset ();
  Alcotest.(check int) "reset ran" 1 !resets;
  Alcotest.(check int) "reset zeroed" 0 !a;
  Registry.clear ();
  let s = Registry.snapshot () in
  Alcotest.(check bool) "sticky survives clear" true (Registry.find s "sticky.s" <> None);
  Alcotest.(check bool) "plain dropped by clear" true (Registry.find s "plain.s" = None);
  Registry.clear ()

let test_registry_owned_and_prune () =
  Registry.clear ();
  let grp = Registry.group ~subsystem:"owned_t" "metrics" in
  let c = Registry.counter grp "hits" in
  let g = Registry.gauge grp "level" in
  M.Counter.add c 3;
  M.Gauge.set g 1.5;
  let s = Registry.snapshot () in
  Alcotest.(check int) "owned counter visible" 3
    (count (Registry.find_sample s "owned_t.metrics" "hits"));
  (* prune drops zero samples and then empty sources *)
  M.Counter.reset c;
  M.Gauge.set g 0.0;
  let p = Registry.prune (Registry.snapshot ()) in
  Alcotest.(check bool) "all-zero source pruned" true (Registry.find p "owned_t.metrics" = None);
  Registry.clear ()

let test_group_order_and_reset () =
  Registry.clear ();
  let grp = Registry.group ~subsystem:"grp_t" "g" in
  let b = Registry.counter grp "b" in
  let a = Registry.gauge grp "a" in
  let h = Registry.histogram grp "h" in
  M.Counter.add b 2;
  M.Gauge.set a 0.5;
  M.Histogram.observe h 7;
  let src = Registry.source grp in
  Alcotest.(check string) "source id" "grp_t.g" (Source.id src);
  Alcotest.(check (list string)) "samples in creation order" [ "b"; "a"; "h" ]
    (List.map fst (src.Source.snapshot ()));
  src.Source.reset ();
  Alcotest.(check int) "reset zeroes the counter" 0 (M.Counter.get b);
  Alcotest.(check (float 0.0)) "reset zeroes the gauge" 0.0 (M.Gauge.get a);
  Alcotest.(check int) "reset empties the histogram" 0 (M.Histogram.count h);
  Registry.clear ()

let test_group_sticky_survives_clear () =
  Registry.clear ();
  let sticky = Registry.group ~sticky:true ~subsystem:"grp_sticky" "s" in
  let c = Registry.counter sticky "n" in
  ignore (Registry.counter (Registry.group ~subsystem:"grp_plain" "s") "n");
  M.Counter.incr c;
  Registry.clear ();
  let s = Registry.snapshot () in
  Alcotest.(check int) "sticky group survives clear" 1
    (count (Registry.find_sample s "grp_sticky.s" "n"));
  Alcotest.(check bool) "instance group dropped by clear" true
    (Registry.find s "grp_plain.s" = None)

let test_source_count () =
  let src =
    Source.make ~subsystem:"read_t" ~name:"s" (fun () ->
        [ ("n", M.Count 4); ("lvl", M.Level 2.5) ])
  in
  Alcotest.(check int) "count reads the sample" 4 (Source.count src "n");
  Alcotest.(check (float 0.0)) "level reads the sample" 2.5 (Source.level src "lvl");
  let raises_naming sample =
    match Source.count src sample with
    | _ -> Alcotest.failf "counting %s should raise" sample
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names read_t.s and %s" msg sample)
          true
          (Astring_contains.contains msg "read_t.s" && Astring_contains.contains msg sample)
  in
  raises_naming "missing";
  raises_naming "lvl"

(* A bench window can span a trial boundary: the reset in between must
   not turn the sticky counters' readings negative. *)
let test_window_spans_reset () =
  Registry.clear ();
  let c = Registry.counter (Registry.group ~sticky:true ~subsystem:"span_t" "s") "n" in
  M.Counter.add c 10;
  let before = Registry.snapshot () in
  Registry.reset ();
  M.Counter.add c 3;
  let d = Registry.diff ~before ~after:(Registry.snapshot ()) in
  Alcotest.(check int) "the window keeps the post-reset reading" 3
    (count (Registry.find_sample d "span_t.s" "n"))

(* --- tracer -------------------------------------------------------------- *)

(* The ring's span events as ("B cat:name" | "E cat:name", ts), oldest
   first. The tests trace one core. *)
let span_events t =
  List.filter_map
    (fun (e : Tracer.event) ->
      let frame = e.Tracer.cat ^ ":" ^ e.Tracer.name in
      match e.Tracer.ph with
      | Tracer.B -> Some ("B " ^ frame, e.Tracer.ts)
      | Tracer.E -> Some ("E " ^ frame, e.Tracer.ts)
      | Tracer.I -> None)
    (Tracer.events t)

let test_span_nesting_flame () =
  let t = Tracer.create () in
  Tracer.set_enabled t true;
  Tracer.begin_span t ~cat:"a" ~ts:0 "outer";
  Tracer.begin_span t ~cat:"b" ~ts:10 "inner";
  Tracer.attribute t ~core:0 ~cycles:7;
  Tracer.end_span t ~ts:30 ();
  Tracer.attribute t ~core:0 ~cycles:4;
  Tracer.end_span t ~ts:100 ();
  Tracer.attribute t ~core:0 ~cycles:9;
  (* each end names the innermost open span, at its own time *)
  Alcotest.(check (list (pair string int)))
    "B/E events"
    [ ("B a:outer", 0); ("B b:inner", 10); ("E b:inner", 30); ("E a:outer", 100) ]
    (span_events t);
  Alcotest.(check int) "spans closed" 2 (Tracer.spans_closed t);
  (* sampler: cycles charge the innermost open span's category *)
  Alcotest.(check (list (pair string int)))
    "attribution" [ ("unattributed", 9); ("b", 7); ("a", 4) ]
    (List.sort compare (Tracer.attribution t) |> List.rev);
  (* unmatched end is ignored, not an error *)
  Tracer.end_span t ~ts:200 ();
  Alcotest.(check int) "unmatched end ignored" 2 (Tracer.spans_closed t)

let test_ring_overflow_drops_oldest () =
  let t = Tracer.create ~capacity:4 () in
  Tracer.set_enabled t true;
  for i = 0 to 5 do
    Tracer.instant t ~cat:"x" ~ts:i (Printf.sprintf "e%d" i)
  done;
  let evs = Tracer.events t in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length evs);
  Alcotest.(check (list string)) "oldest dropped first" [ "e2"; "e3"; "e4"; "e5" ]
    (List.map (fun (e : Tracer.event) -> e.Tracer.name) evs);
  Alcotest.(check int) "drops counted" 2 (Tracer.dropped t);
  Alcotest.(check int) "recorded counts all" 6 (Tracer.recorded t);
  (* overflow does not corrupt span tracking: a span whose B event left
     the ring still closes, its E event naming it at its end time *)
  let t2 = Tracer.create ~capacity:2 () in
  Tracer.set_enabled t2 true;
  Tracer.begin_span t2 ~cat:"a" ~ts:0 "s";
  for i = 0 to 9 do
    Tracer.instant t2 ~cat:"x" ~ts:i "noise"
  done;
  Tracer.end_span t2 ~ts:50 ();
  Alcotest.(check int) "span closed" 1 (Tracer.spans_closed t2);
  Alcotest.(check bool) "E event at its end time" true
    (List.exists
       (fun (e : Tracer.event) ->
         e = { Tracer.ph = Tracer.E; ts = 50; core = 0; cat = "a"; name = "s" })
       (Tracer.events t2))

(* Host bytes [f] allocates, as the GC counts them. *)
let allocated f =
  let a0 = Gc.allocated_bytes () in
  let v = f () in
  (v, Gc.allocated_bytes () -. a0)

let test_ring_made_on_first_event () =
  (* A tracer that records nothing holds no ring: the process-wide one
     is created in every process, traced or not. *)
  let t, created = allocated (fun () -> Tracer.create ()) in
  Alcotest.(check bool)
    (Printf.sprintf "create allocates under 4 KiB (%.0f B)" created)
    true (created < 4096.0);
  let (), reset = allocated (fun () -> Tracer.reset t) in
  Alcotest.(check bool) (Printf.sprintf "reset makes no ring (%.0f B)" reset) true (reset < 4096.0);
  Alcotest.(check int) "nothing recorded" 0 (Tracer.recorded t);
  Alcotest.(check int) "no events" 0 (List.length (Tracer.events t));
  Tracer.set_enabled t true;
  let (), first = allocated (fun () -> Tracer.instant t ~cat:"x" ~ts:1 "first") in
  Alcotest.(check bool)
    (Printf.sprintf "the first event makes the 65,536-slot ring (%.0f B)" first)
    true
    (first >= float_of_int (65536 * (Sys.word_size / 8)));
  let (), second = allocated (fun () -> Tracer.instant t ~cat:"x" ~ts:2 "second") in
  Alcotest.(check bool)
    (Printf.sprintf "later events reuse it (%.0f B)" second)
    true (second < 4096.0);
  Alcotest.(check (list string)) "both kept, oldest first" [ "first"; "second" ]
    (List.map (fun (e : Tracer.event) -> e.Tracer.name) (Tracer.events t));
  Tracer.reset t;
  Alcotest.(check int) "reset empties the ring" 0 (List.length (Tracer.events t));
  Tracer.instant t ~cat:"x" ~ts:3 "third";
  Alcotest.(check (list string)) "and it records again" [ "third" ]
    (List.map (fun (e : Tracer.event) -> e.Tracer.name) (Tracer.events t))

let test_span_disabled_is_passthrough () =
  let t = Tracer.create () in
  let clock = Uksim.Clock.create () in
  let r = Tracer.span t clock ~cat:"c" "work" (fun () -> Uksim.Clock.advance clock 10; 42) in
  Alcotest.(check int) "result passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (Tracer.recorded t);
  Tracer.set_enabled t true;
  let _ = Tracer.span t clock ~cat:"c" "work" (fun () -> Uksim.Clock.advance clock 5; ()) in
  Alcotest.(check int) "B+E recorded" 2 (Tracer.recorded t);
  Alcotest.(check (list (pair string int)))
    "span timed on the clock" [ ("B c:work", 10); ("E c:work", 15) ]
    (span_events t)

(* --- determinism: tracing must be invisible to the simulation ------------ *)

let test_tracing_preserves_trace_hash () =
  let go () =
    let c = Cluster.create ~n:2 () in
    let transport = Ukapps.Serve.Socket in
    ignore (Cluster.add_httpd c ~transport (Ukapps.Httpd.In_memory [ ("/x", "hello") ]));
    let r =
      Cluster.run_load c ~transport ~port:80 ~connections_per_core:2 ~requests_per_core:50
        (Ukapps.Httpd.client ~path:"/x" ())
    in
    (Cluster.trace_hash c, r.Ukapps.Load.rate_per_sec, r.Ukapps.Load.errors)
  in
  let h_off, rate_off, e_off = go () in
  let t = Tracer.default in
  Tracer.reset t;
  Tracer.set_enabled t true;
  let h_on, rate_on, e_on = Fun.protect go ~finally:(fun () -> Tracer.set_enabled t false) in
  Alcotest.(check bool) "tracer saw the workload" true (Tracer.recorded t > 0);
  Alcotest.(check bool) "spans closed" true (Tracer.spans_closed t > 0);
  Tracer.reset t;
  Alcotest.(check int) "trace hash unchanged by tracing" h_off h_on;
  Alcotest.(check (float 0.0)) "rate unchanged by tracing" rate_off rate_on;
  Alcotest.(check int) "no errors either way" 0 (e_off + e_on)

(* --- per-trial resets (contention counters must not leak) ---------------- *)

let test_trial_resets () =
  let s = Uksim.Stats.create () in
  Uksim.Stats.add s 5.0;
  Uksim.Stats.add s 7.0;
  Uksim.Stats.clear s;
  Alcotest.(check int) "stats cleared" 0 (Uksim.Stats.count s);
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let m = Uklock.Lock.Mutex.create (Uklock.Lock.Threaded sched) in
  ignore
    (Uksched.Sched.spawn sched (fun () ->
         Uklock.Lock.Mutex.lock m;
         Uksched.Sched.sleep_ns 1000.0;
         Uklock.Lock.Mutex.unlock m));
  ignore
    (Uksched.Sched.spawn sched (fun () ->
         Uklock.Lock.Mutex.lock m;
         Uklock.Lock.Mutex.unlock m));
  Uksched.Sched.run sched;
  let msrc = Uklock.Lock.Mutex.source m in
  Alcotest.(check bool) "contention observed" true (Source.count msrc "contended" > 0);
  msrc.Source.reset ();
  Alcotest.(check (pair int int)) "mutex contention cleared" (0, 0)
    (Source.count msrc "contended", Source.count msrc "wait_cycles");
  let l = Uklock.Lock.Spin.create ~name:"t" () in
  let c0 = Uksim.Clock.create () and c1 = Uksim.Clock.create () in
  Uklock.Lock.Spin.acquire l c0 ~hold:1000;
  Uklock.Lock.Spin.acquire l c1 ~hold:500;
  let src = Uklock.Lock.Spin.source l in
  src.Source.reset ();
  Alcotest.(check int) "spin stats cleared" 0
    (Source.count src "acquisitions" + Source.count src "contended"
   + Source.count src "wait_cycles")

let suite =
  [
    Alcotest.test_case "metric: counter/gauge diff semantics" `Quick test_counter_gauge;
    Alcotest.test_case "metric: histogram edges (0, 1, max_int)" `Quick test_histogram_edges;
    Alcotest.test_case "registry: register, snapshot, window diff" `Quick
      test_registry_register_diff;
    Alcotest.test_case "registry: no diff across clear (generations)" `Quick
      test_registry_clear_generations;
    Alcotest.test_case "registry: sticky sources and reset" `Quick test_registry_sticky_reset;
    Alcotest.test_case "registry: owned metrics and prune" `Quick test_registry_owned_and_prune;
    Alcotest.test_case "group: creation order, reset zeroes" `Quick test_group_order_and_reset;
    Alcotest.test_case "group: sticky survives clear" `Quick test_group_sticky_survives_clear;
    Alcotest.test_case "source: count/level, errors name the sample" `Quick test_source_count;
    Alcotest.test_case "registry: a window spanning reset stays non-negative" `Quick
      test_window_spans_reset;
    Alcotest.test_case "tracer: span nesting, flame fold, sampler" `Quick
      test_span_nesting_flame;
    Alcotest.test_case "tracer: ring overflow drops oldest" `Quick
      test_ring_overflow_drops_oldest;
    Alcotest.test_case "tracer: the ring is made on the first event" `Quick
      test_ring_made_on_first_event;
    Alcotest.test_case "tracer: disabled is passthrough" `Quick test_span_disabled_is_passthrough;
    Alcotest.test_case "tracer: trace_hash invariant under tracing (4-core smp)" `Quick
      test_tracing_preserves_trace_hash;
    Alcotest.test_case "trial resets: stats, mutex, spin" `Quick test_trial_resets;
  ]
