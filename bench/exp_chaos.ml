(* Chaos soak: the webserver and key-value workloads under seeded fault
   injection (ukfault), plus supervision/watchdog/OOM/degraded-mode and
   block-device error drills.

   Everything is driven from fixed seeds, so two runs of this experiment
   produce identical numbers. Gates: the fleet drill loses no response
   (fleet_zero_lost), and the 10%-loss webserver run replays identically
   with the tracer on (chaos_replay). *)

module Fn = Ukfault.Faultnet
module Fa = Ukfault.Faultalloc
module Fb = Ukfault.Faultblk
module S = Uknetstack.Stack
module A = Uknetstack.Addr
module B = Ukblock.Blockdev

let count = Uktrace.Source.count

let chaos_seed = 0xC4A05 (* fixed: the soak replays byte-for-byte *)

(* A served workload over a loopback link with BOTH transmit directions
   going through fault injectors driven from one seed. *)
type chaotic = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t;
  server_stack : S.t;
  client_stack : S.t;
  server_fault : Fn.t;
  client_fault : Fn.t;
  alloc : Ukalloc.Alloc.t;
}

let chaotic_link ?(seed = chaos_seed) plan =
  Bench.trial ();
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let rng = Uksim.Rng.create seed in
  let server_fault = Fn.wrap ~clock ~engine ~rng:(Uksim.Rng.split rng) ~plan da in
  let client_fault = Fn.wrap ~clock ~engine ~rng:(Uksim.Rng.split rng) ~plan db in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let server_stack = mk (Fn.dev server_fault) "10.0.0.1" 0x1 in
  let client_stack = mk (Fn.dev client_fault) "10.0.0.2" 0x2 in
  let alloc = Ukalloc.Tlsf.create ~clock ~base:(16 * 1024 * 1024) ~len:(16 * 1024 * 1024) in
  { clock; engine; sched; server_stack; client_stack; server_fault; client_fault; alloc }

let injected (c : chaotic) =
  let a = Fn.source c.server_fault and b = Fn.source c.client_fault in
  count a "dropped" + count b "dropped" + count a "flap_dropped" + count b "flap_dropped"

(* --- webserver under increasing loss ------------------------------------- *)

type web_run = {
  rate : float;
  p99_us : float;
  wrk_errors : int;
  served : int;
  drops : int;
  stack_rx_drop : int;
}

let web_run ?(seed = chaos_seed) ~loss ~corrupt ~requests () =
  let c = chaotic_link ~seed (Fn.plan ~drop:loss ~corrupt ()) in
  let httpd =
    Ukapps.Httpd.create ~clock:c.clock ~sched:c.sched ~stack:c.server_stack ~alloc:c.alloc
      (Ukapps.Httpd.In_memory [ ("/index.html", Ukapps.Httpd.default_page) ])
  in
  let r =
    Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock:c.clock ~sched:c.sched
      ~stack:c.client_stack ~server:(A.Ipv4.of_string "10.0.0.1", 80) ~connections:10 ~requests
      (Ukapps.Httpd.client ())
  in
  let rx_drop s = count (S.source s) "rx_drop" in
  { rate = r.Ukapps.Load.rate_per_sec; p99_us = r.Ukapps.Load.p99_us;
    wrk_errors = r.Ukapps.Load.errors; served = count (Ukapps.Httpd.source httpd) "requests";
    drops = injected c; stack_rx_drop = rx_drop c.server_stack + rx_drop c.client_stack }

let run_web () =
  let requests = Common.scaled 4000 in
  Common.row "webserver vs injected loss (%d requests, 10 connections, seed %#x)\n" requests
    chaos_seed;
  Common.row "  %-22s %12s %10s %10s %8s %10s\n" "fault plan" "req/s" "p99 (us)" "served"
    "errors" "drops";
  List.iter
    (fun (label, loss, corrupt) ->
      let w = web_run ~loss ~corrupt ~requests () in
      Common.row "  %-22s %12.0f %10.1f %10d %8d %10d\n" label w.rate w.p99_us w.served
        w.wrk_errors w.drops;
      (* Convergence: every request completed and came back well-formed. *)
      if w.wrk_errors > 0 then
        Common.row "  !! %d responses lost under %s — TCP failed to recover\n" w.wrk_errors
          label)
    [
      ("clean link", 0.0, 0.0);
      ("5% loss", 0.05, 0.0);
      ("10% loss", 0.10, 0.0);
      ("20% loss", 0.20, 0.0);
      ("10% loss + 1% corrupt", 0.10, 0.01);
    ];
  Common.row "  => 100%% of payload bytes delivered at every rate: the go-back-N\n";
  Common.row "     retransmission path converges (no livelock) up to 20%% loss.\n"

(* --- key-value store under loss ------------------------------------------- *)

let run_kv () =
  let requests = Common.scaled 4000 in
  Common.row "\nkey-value (redis-like) vs injected loss (%d GETs, pipeline 8)\n" requests;
  Common.row "  %-12s %12s %8s\n" "loss" "req/s" "errors";
  List.iter
    (fun loss ->
      let c = chaotic_link (Fn.plan ~drop:loss ()) in
      let store =
        Ukapps.Resp_store.create ~clock:c.clock ~sched:c.sched ~stack:c.server_stack
          ~alloc:c.alloc ()
      in
      ignore store;
      let r =
        Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock:c.clock ~sched:c.sched
          ~stack:c.client_stack ~server:(A.Ipv4.of_string "10.0.0.1", 6379) ~connections:10
          ~pipeline:8 ~requests (Ukapps.Resp_store.client Ukapps.Resp_store.Get)
      in
      Common.row "  %-12s %12.0f %8d\n"
        (Printf.sprintf "%.0f%%" (loss *. 100.0))
        r.Ukapps.Load.rate_per_sec r.Ukapps.Load.errors)
    [ 0.0; 0.10 ]

(* --- supervised app: crash injection, watchdog, recovery latency ---------- *)

let run_supervision () =
  Common.row "\nsupervised worker: injected crashes, watchdog, recovery latency\n";
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let rng = Uksim.Rng.create chaos_seed in
  let recovery = Uksim.Stats.create () in
  let iterations = ref 0 in
  let crash_at = ref 0.0 in
  let target = Common.scaled 400 in
  (* Watchdog with a 10 ms budget; the worker pets it every 1 ms of work,
     so in steady state it never bites even across crash/restart gaps. *)
  let wd = Ukos.Watchdog.create ~clock ~engine ~timeout_ns:10.0e6 () in
  let policy =
    { Uksched.Supervisor.max_restarts = 1000; backoff_ns = 0.2e6; backoff_factor = 2.0;
      max_backoff_ns = 2.0e6; jitter = 0.0 }
  in
  let sup =
    Uksched.Supervisor.supervise sched ~engine ~policy ~name:"worker"
      ~on_crash:(fun _ -> crash_at := Uksim.Clock.ns clock)
      (fun () ->
        if !crash_at > 0.0 then begin
          (* Back up: measure crash-to-restart latency. *)
          Uksim.Stats.add recovery ((Uksim.Clock.ns clock -. !crash_at) /. 1000.0);
          crash_at := 0.0
        end;
        while !iterations < target do
          incr iterations;
          Ukos.Watchdog.pet wd;
          Uksched.Sched.sleep_ns 1.0e6;
          (* ~3% of iterations hit an injected fault and crash the
             worker thread. *)
          if Uksim.Rng.float rng 1.0 < 0.03 then failwith "injected worker crash"
        done;
        (* Work done: disarm before the pets stop coming. *)
        Ukos.Watchdog.stop wd)
  in
  ignore (Uksched.Sched.spawn sched ~name:"main" (fun () -> Uksched.Sched.sleep_ns 3.0e9));
  Uksched.Sched.run sched;
  Ukos.Watchdog.stop wd;
  Common.row "  iterations completed     %d / %d\n" !iterations target;
  Common.row "  crashes / restarts       %d / %d (budget left %d)\n"
    (Uksched.Supervisor.crashes sup) (Uksched.Supervisor.restarts sup)
    (Uksched.Supervisor.restarts_remaining sup);
  Common.row "  watchdog bites           %d (steady state target: 0)\n" (Ukos.Watchdog.bites wd);
  Common.row "  recovery latency (us)    p50 %.0f  p99 %.0f  max %.0f\n"
    (Uksim.Stats.median recovery) (Uksim.Stats.percentile recovery 99.0)
    (Uksim.Stats.max recovery);
  Common.row "  final state              %s\n"
    (match Uksched.Supervisor.state sup with
    | Uksched.Supervisor.Completed -> "completed"
    | Uksched.Supervisor.Gave_up -> "GAVE UP"
    | Uksched.Supervisor.Running | Uksched.Supervisor.Restarting -> "running")

(* --- allocator pressure: degraded mode (503 shedding) ---------------------- *)

let run_oom () =
  Common.row "\nallocator pressure: webserver sheds load instead of crashing\n";
  let c = chaotic_link (Fn.plan ()) in
  let fa = Fa.wrap ~fail_every:25 c.alloc in
  let httpd =
    Ukapps.Httpd.create ~clock:c.clock ~sched:c.sched ~stack:c.server_stack ~alloc:(Fa.alloc fa)
      (Ukapps.Httpd.In_memory [ ("/index.html", Ukapps.Httpd.default_page) ])
  in
  let requests = Common.scaled 2000 in
  let r =
    Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock:c.clock ~sched:c.sched
      ~stack:c.client_stack ~server:(A.Ipv4.of_string "10.0.0.1", 80) ~connections:10 ~requests
      (Ukapps.Httpd.client ())
  in
  let hs = Ukapps.Httpd.source httpd in
  Common.row "  requests served          %d (every 25th pool alloc failed)\n"
    (count hs "requests");
  Common.row "  shed with 503            %d (= wrk non-200 count: %d)\n"
    (count hs "errors_503") r.Ukapps.Load.errors;
  Common.row "  injected OOM failures    %d over %d attempts\n" (Fa.injected_failures fa)
    (Fa.attempts fa);
  Common.row "  => no crash, no lost connection: pressure becomes 503s.\n"

(* --- block-device faults: retry until success ------------------------------ *)

let run_blk () =
  Common.row "\nblock device: 10%% I/O errors + torn writes, writer retries\n";
  let clock = Uksim.Clock.create () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock () in
  let fb =
    Fb.wrap ~clock ~rng:(Uksim.Rng.create chaos_seed)
      ~plan:(Fb.plan ~io_error:0.08 ~torn_write:0.02 ~latency_spike:0.02 ()) inner
  in
  let dev = Fb.dev fb in
  let writes = Common.scaled 2000 in
  let retries = ref 0 in
  for i = 0 to writes - 1 do
    let data = Bytes.make 512 (Char.chr (i land 0xff)) in
    let lba = i mod dev.B.capacity_sectors in
    let rec attempt n =
      match dev.B.write_sync ~lba data with
      | Ok () -> ()
      | Error _ when n < 8 ->
          incr retries;
          attempt (n + 1)
      | Error e -> failwith ("unrecoverable write: " ^ B.error_to_string e)
    in
    attempt 0
  done;
  (* Verify the last stripe of writes really landed. *)
  let verified = ref true in
  for i = writes - 10 to writes - 1 do
    match inner.B.read_sync ~lba:(i mod dev.B.capacity_sectors) ~sectors:1 with
    | Ok got -> if Bytes.get got 0 <> Char.chr (i land 0xff) then verified := false
    | Error _ -> verified := false
  done;
  let st = Fb.source fb in
  Common.row "  %d writes, %d retries; injected: %d io errors, %d torn, %d spikes\n" writes
    !retries (count st "io_errors") (count st "torn_writes") (count st "latency_spikes");
  Common.row "  data verified after retry: %b\n" !verified

(* --- fleet drill: kill instances mid-spike -------------------------------- *)

module Fv = Ukfault.Faultvm
module Fleet = Ukfleet.Fleet

(* A snapshot-clone fleet rides out a 6x spike while Faultvm kills 20% of
   the ready instances in the middle of it. The gate: every offered
   request gets exactly one response (completed or shed) — the
   supervisor respawns the slots and the orphaned requests are
   re-dispatched, so nothing is lost. *)
let run_fleet () =
  Bench.trial ();
  Common.row "\nfleet drill: kill 20%% of instances mid-spike, supervisor respawns\n";
  let fleet =
    Fleet.create ~seed:chaos_seed ~boot_mode:Fleet.Snapshot
      ~autoscale:Ukfleet.Autoscaler.default ~initial:4
      ~shed_after_ns:(Uksim.Units.msec 50.0) ~slo_bucket_ns:(Uksim.Units.msec 1.0)
      ~image:Ukfleet.Image.httpd ()
  in
  let c = Fleet.costs fleet in
  let cap = 1e9 /. c.Fleet.service_ns in
  let dur = Uksim.Units.msec (if Bench.fast then 30.0 else 60.0) in
  let spike_at = 0.2 *. dur and spike_len = 0.5 *. dur in
  let w =
    Ukfleet.Workload.spike ~base_rps:cap ~factor:6.0 ~at_ns:spike_at ~spike_ns:spike_len
      ~duration_ns:dur
  in
  let drill_at = Fleet.settle_ns fleet +. spike_at +. (0.5 *. spike_len) in
  let fv =
    Fv.arm ~clock:(Fleet.control_clock fleet) ~engine:(Fleet.control_engine fleet)
      ~rng:(Uksim.Rng.create chaos_seed)
      ~plan:(Fv.plan ~at_ns:drill_at ~kill_fraction:0.2 ())
      ~targets:(fun () -> Fleet.ready_ids fleet)
      ~kill:(fun ~now_ns iid -> Fleet.kill fleet ~now_ns ~iid)
  in
  let r = Fleet.run fleet w in
  let killed = count (Fv.source fv) "killed" in
  Common.row "  killed %d instances mid-spike (%d missed); %d respawns\n" killed
    (count (Fv.source fv) "missed") r.Fleet.restarts;
  Common.row "  offered=%d completed=%d shed=%d redispatched=%d lost=%d\n" r.Fleet.offered
    r.Fleet.completed r.Fleet.shed r.Fleet.redispatched r.Fleet.lost;
  Common.row "  p99=%.0fus slo_violation=%.1fms peak=%d instances\n" r.Fleet.p99_us
    (r.Fleet.slo_violation_ns /. 1e6) r.Fleet.peak_instances;
  Bench.emit_i "fleet_killed" killed;
  Bench.emit_i "fleet_restarts" r.Fleet.restarts;
  Bench.emit_i "fleet_redispatched" r.Fleet.redispatched;
  Bench.emit_i "fleet_lost" r.Fleet.lost;
  Bench.gate "fleet_zero_lost" (r.Fleet.lost = 0 && killed > 0)

(* --- determinism ----------------------------------------------------------- *)

let web_fingerprint { rate; p99_us; wrk_errors; served; drops; stack_rx_drop } =
  Bench.
    [
      fp_f "rate" rate; fp_f "p99_us" p99_us; fp_i "wrk_errors" wrk_errors; fp_i "served" served;
      fp_i "drops" drops; fp_i "stack_rx_drop" stack_rx_drop;
    ]

let run_determinism () =
  Common.row "\ndeterministic replay (same seed, 10%% loss webserver run)\n";
  let requests = Common.scaled 1000 in
  let go () = web_fingerprint (web_run ~loss:0.10 ~corrupt:0.0 ~requests ()) in
  Bench.replay "chaos" ~first:(go ()) go

let run () =
  Bench.phase "web" run_web;
  Bench.phase "kv" run_kv;
  Bench.phase "supervision" run_supervision;
  Bench.phase "oom" run_oom;
  Bench.phase "blk" run_blk;
  Bench.phase "fleet" run_fleet;
  Bench.phase "determinism" run_determinism

let register () =
  Bench.register ~id:"chaos" ~group:"chaos"
    ~descr:"chaos soak: faults across net, alloc, block (ukfault)" run
