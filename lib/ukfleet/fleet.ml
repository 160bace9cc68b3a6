(* Fleet orchestration as a deterministic discrete-event control plane.

   All scheduling decisions run on analytic timestamps (floats carried
   through event closures); the engine clocks only order event delivery.
   That keeps instance capacity parallel — n instances serve n requests'
   worth of virtual time concurrently — while every cost (boot, clone,
   activation, per-request service) descends from the calibrated
   substrate via Image.calibrate. Randomness (arrival draws, flow ids)
   comes from one seeded RNG, so a fixed seed replays byte-identically:
   trace_hash folds every event. *)

type boot_mode = Cold | Warm_pool of int | Snapshot
type backend = Unikraft of Ukplat.Vmm.t | Baseline of Ukos.Profiles.t

type substrate = [ `Own | `Engine of Uksim.Clock.t * Uksim.Engine.t ]

type costs = {
  cold_boot_ns : float;
  clone_ns : float;
  warm_activation_ns : float;
  service_ns : float;
}

type report = {
  offered : int;
  completed : int;
  shed : int;
  lost : int;
  redispatched : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
  slo_violation_ns : float;
  cold_boots : int;
  clones : int;
  warm_hits : int;
  crashes : int;
  restarts : int;
  retired : int;
  peak_instances : int;
  final_ready : int;
  elapsed_ns : float;
  trace_hash : int;
}

type istate = Booting | Ready | Dead

type req = {
  rid : int;
  flow : int;
  arrival_ns : float;
  mutable done_ : bool;
  on_reply : (ok:bool -> latency_ns:float -> unit) option;
}

type instance = {
  iid : int;
  mutable state : istate;
  mutable busy_until_ns : float;
  pending : req Queue.t;
  mutable inflight : int;
  mutable epoch : int;  (* bumped on crash: orphaned completion events no-op *)
  mutable crashes_in_row : int;
  mutable restarts_used : int;
  mutable fresh : bool;  (* respawned; first completion closes the backoff run *)
  mutable retired : bool;
}

type t = {
  rng : Uksim.Rng.t;
  boot_mode : boot_mode;
  fd : Frontdoor.t;
  auto : Autoscaler.t option;
  slo_ns : float;
  shed_after_ns : float;
  bucket_ns : float;
  initial : int;
  costs : costs;
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  external_sub : bool;  (* [`Engine]: caller drives; run is invalid *)
  instances : (int, instance) Hashtbl.t;
  mutable next_iid : int;
  mutable next_rid : int;
  lb_q : req Queue.t;
  mutable outstanding : int;  (* dispatched-not-answered + lb_q *)
  mutable ready_n : int;
  mutable warming_n : int;
  mutable pool : int;
  mutable template_eta : float option;
  lat : Uksim.Stats.t;  (* completion latencies, ns, whole run *)
  win : Uksim.Stats.t;  (* same, current control window *)
  mutable window_p99_ns : float;  (* [win]'s p99 at the last control tick *)
  viol : (int, unit) Hashtbl.t;  (* violated SLO buckets *)
  mutable t_measure : float;
  mutable last_event : float;
  mutable c_offered : int;
  mutable c_completed : int;
  mutable c_shed : int;
  mutable c_redispatched : int;
  mutable c_cold_boots : int;
  mutable c_clones : int;
  mutable c_warm_hits : int;
  mutable c_crashes : int;
  mutable c_restarts : int;
  mutable c_retired : int;
  mutable peak : int;
  mutable started : bool;
  mutable ran : bool;
  mutable replay_active : bool;
  mutable tick_armed : bool;
  mutable draining : bool;  (* submit sheds immediately; in-flight completes *)
  mutable frozen_at : float option;  (* host-freeze fault: completions held *)
  frozen_q : (instance * req * int) Queue.t;  (* held (inst, req, epoch) *)
  mutable trace : int;
}

(* Supervisor policy for respawns and the front-door queue bound, while
   no instance is ready. *)
let restart = Uksched.Supervisor.default_policy
let lb_queue_cap = 4096

(* --- plumbing ------------------------------------------------------------ *)

let at_abs t ns f =
  Uksim.Engine.at t.engine
    (max (Uksim.Clock.cycles_of_ns ns) (Uksim.Clock.cycles t.clock))
    f

let control_engine t = t.engine
let control_clock t = t.clock
let now_ns t = Uksim.Clock.ns t.clock

let settle_ns t =
  t.costs.cold_boot_ns +. t.costs.clone_ns +. t.costs.warm_activation_ns
  +. Uksim.Units.msec 1.0

let mix = Uksim.Rng.mix

let trace t tag a ns =
  t.trace <- mix (mix (mix t.trace tag) a) (Int64.to_int (Int64.bits_of_float ns) land max_int)

let mark_bucket t ns =
  if ns >= t.t_measure && t.bucket_ns > 0.0 then
    Hashtbl.replace t.viol (int_of_float ((ns -. t.t_measure) /. t.bucket_ns)) ()

(* --- cost model ---------------------------------------------------------- *)

let derive_costs ~image ~backend =
  let mem_copy_ns mb =
    Uksim.Clock.ns_of_cycles (Uksim.Cost.memcpy (Uksim.Units.mib mb))
  in
  match backend with
  | Unikraft vmm ->
      let calib = Image.calibrate image ~vmm in
      {
        cold_boot_ns = calib.Image.breakdown.Ukplat.Vmm.total_ns;
        clone_ns = Ukplat.Vmm.snapshot_restore_ns vmm +. mem_copy_ns image.Image.mem_mb;
        warm_activation_ns = Uksim.Units.usec 120.0;
        service_ns = calib.Image.service_ns;
      }
  | Baseline prof ->
      (* Service cost derives from the measured Unikraft QEMU/KVM path
         (the §5.3 reference) times the profile's request-cost factor. *)
      let calib = Image.calibrate image ~vmm:Ukplat.Vmm.Qemu in
      let app = Image.profile_app image in
      let factor =
        Option.value (Ukos.Profiles.request_cost_factor prof ~app) ~default:1.8
      in
      let mem =
        Option.value (List.assoc_opt app prof.Ukos.Profiles.min_mem_mb) ~default:64
      in
      {
        cold_boot_ns =
          Option.value prof.Ukos.Profiles.boot_ns ~default:(Uksim.Units.msec 500.0);
        clone_ns = Ukplat.Vmm.snapshot_restore_ns Ukplat.Vmm.Qemu +. mem_copy_ns mem;
        warm_activation_ns = Uksim.Units.usec 250.0;
        service_ns = calib.Image.service_ns *. factor;
      }

(* --- construction -------------------------------------------------------- *)

(* An observer reads what the autoscaler decides on: ready and warming
   instances, outstanding requests and the last control window's p99. *)
let source t =
  Uktrace.Source.make ~subsystem:"ukfleet" ~name:"fleet" (fun () ->
      [
        ("offered", Uktrace.Metric.Count t.c_offered);
        ("completed", Uktrace.Metric.Count t.c_completed);
        ("shed", Uktrace.Metric.Count t.c_shed);
        ("redispatched", Uktrace.Metric.Count t.c_redispatched);
        ("cold_boots", Uktrace.Metric.Count t.c_cold_boots);
        ("clones", Uktrace.Metric.Count t.c_clones);
        ("warm_hits", Uktrace.Metric.Count t.c_warm_hits);
        ("crashes", Uktrace.Metric.Count t.c_crashes);
        ("restarts", Uktrace.Metric.Count t.c_restarts);
        ("instances_up", Uktrace.Metric.Level (float_of_int t.ready_n));
        ("instances_warming", Uktrace.Metric.Level (float_of_int t.warming_n));
        ("lb_queue_depth", Uktrace.Metric.Level (float_of_int (Queue.length t.lb_q)));
        ("queue_depth", Uktrace.Metric.Level (float_of_int t.outstanding));
        ("window_p99_us", Uktrace.Metric.Level (t.window_p99_ns /. 1e3));
      ])

let create ?(seed = 1) ?(substrate = `Own) ?(backend = Unikraft Ukplat.Vmm.Firecracker)
    ?(boot_mode = Cold) ?(policy = Frontdoor.Least_loaded) ?autoscale
    ?(slo_ns = Uksim.Units.msec 1.0) ?(shed_after_ns = Uksim.Units.msec 4.0)
    ?(slo_bucket_ns = Uksim.Units.msec 5.0) ?(initial = 1) ?(cost_factor = 1.0) ~image
    () =
  if initial < 1 then invalid_arg "Fleet.create: initial must be >= 1";
  if cost_factor <= 0.0 then invalid_arg "Fleet.create: cost_factor must be positive";
  let clock, engine, external_sub =
    match substrate with
    | `Own ->
        let clock = Uksim.Clock.create () in
        (clock, Uksim.Engine.create clock, false)
    | `Engine (c, e) -> (c, e, true)
  in
  let t =
    {
      rng = Uksim.Rng.create (seed lxor 0xF1EE7);
      boot_mode;
      fd = Frontdoor.create policy;
      auto = Option.map Autoscaler.create autoscale;
      slo_ns;
      shed_after_ns;
      bucket_ns = slo_bucket_ns;
      initial;
      costs =
        (* A per-host cost multiplier (ARM-class vs. x86-class silicon):
           every calibrated x86 cost stretches by the same factor. *)
        (let c = derive_costs ~image ~backend in
         {
           cold_boot_ns = c.cold_boot_ns *. cost_factor;
           clone_ns = c.clone_ns *. cost_factor;
           warm_activation_ns = c.warm_activation_ns *. cost_factor;
           service_ns = c.service_ns *. cost_factor;
         });
      clock;
      engine;
      external_sub;
      instances = Hashtbl.create 64;
      next_iid = 0;
      next_rid = 0;
      lb_q = Queue.create ();
      outstanding = 0;
      ready_n = 0;
      warming_n = 0;
      pool = 0;
      template_eta = None;
      lat = Uksim.Stats.create ();
      win = Uksim.Stats.create ();
      window_p99_ns = 0.0;
      viol = Hashtbl.create 64;
      t_measure = 0.0;
      last_event = 0.0;
      c_offered = 0;
      c_completed = 0;
      c_shed = 0;
      c_redispatched = 0;
      c_cold_boots = 0;
      c_clones = 0;
      c_warm_hits = 0;
      c_crashes = 0;
      c_restarts = 0;
      c_retired = 0;
      peak = 0;
      started = false;
      ran = false;
      replay_active = false;
      tick_armed = false;
      draining = false;
      frozen_at = None;
      frozen_q = Queue.create ();
      trace = 0;
    }
  in
  Uktrace.Registry.register (source t);
  t

let costs t = t.costs
let ready_ids t = Frontdoor.members t.fd
let trace_hash t = t.trace

(* --- request path -------------------------------------------------------- *)

let reply req ~ok ~latency_ns =
  match req.on_reply with Some f -> f ~ok ~latency_ns | None -> ()

let shed t req ~now =
  req.done_ <- true;
  t.c_shed <- t.c_shed + 1;
  t.outstanding <- t.outstanding - 1;
  t.last_event <- Float.max t.last_event now;
  mark_bucket t now;
  trace t 0x5ed req.rid now;
  reply req ~ok:false ~latency_ns:(now -. req.arrival_ns)

let complete t inst req ~fin =
  req.done_ <- true;
  (match Queue.peek_opt inst.pending with
  | Some h when h == req -> ignore (Queue.pop inst.pending)
  | Some _ | None -> ());
  inst.inflight <- inst.inflight - 1;
  if inst.fresh then begin
    inst.fresh <- false;
    inst.crashes_in_row <- 0
  end;
  let latency = fin -. req.arrival_ns in
  Uksim.Stats.add t.lat latency;
  Uksim.Stats.add t.win latency;
  if latency > t.slo_ns then mark_bucket t fin;
  t.c_completed <- t.c_completed + 1;
  t.outstanding <- t.outstanding - 1;
  t.last_event <- Float.max t.last_event fin;
  trace t 0xd09e ((req.rid * 31) + inst.iid) fin;
  reply req ~ok:true ~latency_ns:latency

let dispatch t inst req ~now =
  let start = Float.max now inst.busy_until_ns in
  let fin = start +. t.costs.service_ns in
  inst.busy_until_ns <- fin;
  inst.inflight <- inst.inflight + 1;
  Queue.push req inst.pending;
  trace t 0xd15 ((req.rid * 31) + inst.iid) now;
  let ep = inst.epoch in
  at_abs t fin (fun () ->
      if (not req.done_) && inst.epoch = ep && inst.state = Ready then
        if t.frozen_at <> None then Queue.push (inst, req, ep) t.frozen_q
        else complete t inst req ~fin)

(* Best-case queueing delay across ready members — the admission
   controller's estimate of what an accepted request would wait. *)
let best_wait t ~now =
  List.fold_left
    (fun acc iid ->
      let inst = Hashtbl.find t.instances iid in
      Float.min acc (Float.max 0.0 (inst.busy_until_ns -. now)))
    infinity (Frontdoor.members t.fd)

let route t req ~now =
  let load iid =
    let inst = Hashtbl.find t.instances iid in
    Float.max 0.0 (inst.busy_until_ns -. now)
  in
  match Frontdoor.pick t.fd ~flow:req.flow ~load with
  | None ->
      if Queue.length t.lb_q < lb_queue_cap then Queue.push req t.lb_q
      else shed t req ~now
  | Some iid ->
      if best_wait t ~now > t.shed_after_ns then shed t req ~now
      else dispatch t (Hashtbl.find t.instances iid) req ~now

let drain_lb t ~now =
  if Frontdoor.members t.fd <> [] then begin
    let parked = Queue.fold (fun acc r -> r :: acc) [] t.lb_q in
    Queue.clear t.lb_q;
    List.iter (fun r -> route t r ~now) (List.rev parked)
  end

(* --- instance lifecycle -------------------------------------------------- *)

let accepting t = t.replay_active || t.external_sub

(* A spare boots cold in the background and joins the pool when up. *)
let boot_spare t ~now =
  t.c_cold_boots <- t.c_cold_boots + 1;
  at_abs t (now +. t.costs.cold_boot_ns) (fun () -> t.pool <- t.pool + 1)

let refill_pool t ~now = if accepting t then boot_spare t ~now

(* Pick the boot path for a new (or respawning) instance and charge its
   latency: the Cold/Warm_pool/Snapshot distinction the bench measures. *)
let spawn_latency t ~now =
  match t.boot_mode with
  | Cold ->
      t.c_cold_boots <- t.c_cold_boots + 1;
      t.costs.cold_boot_ns
  | Warm_pool _ ->
      if t.pool > 0 then begin
        t.pool <- t.pool - 1;
        t.c_warm_hits <- t.c_warm_hits + 1;
        refill_pool t ~now;
        t.costs.warm_activation_ns
      end
      else begin
        t.c_cold_boots <- t.c_cold_boots + 1;
        t.costs.cold_boot_ns
      end
  | Snapshot -> (
      match t.template_eta with
      | None ->
          t.template_eta <- Some (now +. t.costs.cold_boot_ns);
          t.c_cold_boots <- t.c_cold_boots + 1;
          t.costs.cold_boot_ns
      | Some eta ->
          t.c_clones <- t.c_clones + 1;
          Float.max 0.0 (eta -. now) +. t.costs.clone_ns)

let make_ready t inst ~now =
  if (not inst.retired) && inst.state = Booting then begin
    inst.state <- Ready;
    inst.busy_until_ns <- now;
    t.ready_n <- t.ready_n + 1;
    t.warming_n <- t.warming_n - 1;
    if t.ready_n > t.peak then t.peak <- t.ready_n;
    Frontdoor.add t.fd inst.iid;
    trace t 0xb007 inst.iid now;
    drain_lb t ~now
  end

let scale_out t n ~now =
  for _ = 1 to n do
    let iid = t.next_iid in
    t.next_iid <- iid + 1;
    let inst =
      {
        iid;
        state = Booting;
        busy_until_ns = now;
        pending = Queue.create ();
        inflight = 0;
        epoch = 0;
        crashes_in_row = 0;
        restarts_used = 0;
        fresh = false;
        retired = false;
      }
    in
    Hashtbl.replace t.instances iid inst;
    t.warming_n <- t.warming_n + 1;
    let latency = spawn_latency t ~now in
    trace t 0x59a iid (now +. latency);
    at_abs t (now +. latency) (fun () -> make_ready t inst ~now:(now +. latency))
  done

let scale_in t ~now =
  (* Retire the youngest idle ready instance; hold if none is idle. *)
  let victim =
    Hashtbl.fold
      (fun _ inst best ->
        if inst.state = Ready && inst.inflight = 0 then
          match best with
          | Some b when b.iid >= inst.iid -> best
          | _ -> Some inst
        else best)
      t.instances None
  in
  match victim with
  | None -> ()
  | Some inst ->
      inst.state <- Dead;
      inst.retired <- true;
      t.ready_n <- t.ready_n - 1;
      t.c_retired <- t.c_retired + 1;
      Frontdoor.remove t.fd inst.iid;
      trace t 0x0ff inst.iid now

let kill t ~now_ns ~iid =
  match Hashtbl.find_opt t.instances iid with
  | Some inst when inst.state = Ready ->
      let now = now_ns in
      inst.state <- Dead;
      inst.epoch <- inst.epoch + 1;
      inst.crashes_in_row <- inst.crashes_in_row + 1;
      t.ready_n <- t.ready_n - 1;
      t.c_crashes <- t.c_crashes + 1;
      Frontdoor.remove t.fd iid;
      trace t 0xdead iid now;
      (* Orphaned requests go back through the front door. *)
      let orphans = Queue.fold (fun acc r -> r :: acc) [] inst.pending in
      Queue.clear inst.pending;
      inst.inflight <- 0;
      inst.busy_until_ns <- now;
      List.iter
        (fun r ->
          if not r.done_ then begin
            t.c_redispatched <- t.c_redispatched + 1;
            route t r ~now
          end)
        (List.rev orphans);
      (* Supervisor-style respawn: exponential backoff per consecutive
         crash, bounded by the restart budget. *)
      if inst.restarts_used < restart.Uksched.Supervisor.max_restarts then begin
        inst.restarts_used <- inst.restarts_used + 1;
        t.c_restarts <- t.c_restarts + 1;
        let p = restart in
        let backoff =
          Float.min p.Uksched.Supervisor.max_backoff_ns
            (p.Uksched.Supervisor.backoff_ns
            *. (p.Uksched.Supervisor.backoff_factor
               ** float_of_int (max 0 (inst.crashes_in_row - 1))))
        in
        inst.state <- Booting;
        inst.fresh <- true;
        t.warming_n <- t.warming_n + 1;
        let latency = spawn_latency t ~now in
        let at = now +. backoff +. latency in
        at_abs t at (fun () -> make_ready t inst ~now:at)
      end;
      true
  | Some _ | None -> false

(* --- drain / freeze hooks (the cluster tier's handles on a host) --------- *)

let set_draining t on =
  t.draining <- on;
  trace t 0xd4a1 (if on then 1 else 0) t.last_event

let freeze t ~now_ns =
  if t.frozen_at = None then begin
    t.frozen_at <- Some now_ns;
    trace t 0xf42e 0 now_ns
  end

let frozen t = t.frozen_at <> None

let thaw t ~now_ns =
  match t.frozen_at with
  | None -> ()
  | Some since ->
      t.frozen_at <- None;
      let stall = Float.max 0.0 (now_ns -. since) in
      (* Capacity lost to the stall: every instance's backlog horizon
         shifts by the freeze duration. *)
      Hashtbl.iter
        (fun _ inst ->
          if inst.state = Ready && inst.busy_until_ns > since then
            inst.busy_until_ns <- inst.busy_until_ns +. stall)
        t.instances;
      trace t 0x7a4 0 now_ns;
      (* Held completions land at the thaw instant — the stall is part of
         their latency, exactly what a frozen host's clients observe. *)
      let held = Queue.fold (fun acc e -> e :: acc) [] t.frozen_q in
      Queue.clear t.frozen_q;
      List.iter
        (fun (inst, req, ep) ->
          if (not req.done_) && inst.epoch = ep && inst.state = Ready then
            complete t inst req ~fin:now_ns)
        (List.rev held)

(* --- control loop -------------------------------------------------------- *)

(* One control tick of an autoscaled fleet. The controller reads the
   fleet's own readings, the ones [source] publishes. *)
let rec tick t a ~now =
  t.tick_armed <- true;
  t.window_p99_ns <-
    (if Uksim.Stats.count t.win > 0 then Uksim.Stats.percentile t.win 99.0 else 0.0);
  Uksim.Stats.clear t.win;
  (match
     Autoscaler.decide a ~now_ns:now ~ready:t.ready_n ~warming:t.warming_n
       ~outstanding:t.outstanding ~p99_ns:t.window_p99_ns ~slo_ns:t.slo_ns
   with
  | Autoscaler.Hold -> ()
  | Autoscaler.Scale_out n ->
      trace t 0x5ca1e n now;
      scale_out t n ~now
  | Autoscaler.Scale_in _ ->
      trace t 0x5ca10 1 now;
      scale_in t ~now);
  if t.replay_active || t.outstanding > 0 then begin
    let next = now +. (Autoscaler.params a).Autoscaler.interval_ns in
    at_abs t next (fun () -> tick t a ~now:next)
  end
  else t.tick_armed <- false

(* --- top-level ----------------------------------------------------------- *)

let start_at t ~now =
  if t.started then invalid_arg "Fleet.start: already started";
  t.started <- true;
  t.t_measure <- now;
  t.last_event <- now;
  (match t.boot_mode with
  | Warm_pool target ->
      for _ = 1 to target do
        boot_spare t ~now
      done
  | Cold | Snapshot -> ());
  scale_out t t.initial ~now

let start t = start_at t ~now:(now_ns t)

let mk_req t flow arrival on_reply =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  { rid; flow; arrival_ns = arrival; done_ = false; on_reply }

let submit ?flow ?on_reply t ~now_ns:now =
  if not t.started then invalid_arg "Fleet.submit: fleet not started";
  let flow = match flow with Some f -> f | None -> Uksim.Rng.int t.rng 0x3FFFFFFF in
  let req = mk_req t flow now on_reply in
  t.c_offered <- t.c_offered + 1;
  t.outstanding <- t.outstanding + 1;
  trace t 0xa1 req.rid now;
  (* A draining fleet answers everything immediately with a shed: the
     migration stop-and-copy window must never queue new work here. *)
  if t.draining then shed t req ~now else route t req ~now;
  (* Externally driven fleets re-arm the control loop on demand. *)
  match t.auto with Some a when not t.tick_armed -> tick t a ~now | Some _ | None -> ()

let report t =
  let conv ns = ns /. 1e3 in
  let n = Uksim.Stats.count t.lat in
  {
    offered = t.c_offered;
    completed = t.c_completed;
    shed = t.c_shed;
    lost = t.c_offered - t.c_completed - t.c_shed;
    redispatched = t.c_redispatched;
    mean_us = (if n = 0 then 0.0 else conv (Uksim.Stats.mean t.lat));
    p50_us = (if n = 0 then 0.0 else conv (Uksim.Stats.median t.lat));
    p99_us = (if n = 0 then 0.0 else conv (Uksim.Stats.percentile t.lat 99.0));
    max_us = (if n = 0 then 0.0 else conv (Uksim.Stats.max t.lat));
    slo_violation_ns = float_of_int (Hashtbl.length t.viol) *. t.bucket_ns;
    cold_boots = t.c_cold_boots;
    clones = t.c_clones;
    warm_hits = t.c_warm_hits;
    crashes = t.c_crashes;
    restarts = t.c_restarts;
    retired = t.c_retired;
    peak_instances = t.peak;
    final_ready = t.ready_n;
    elapsed_ns = Float.max 0.0 (t.last_event -. t.t_measure);
    trace_hash = t.trace;
  }

let run t (w : Workload.t) =
  if t.external_sub then
    invalid_arg "Fleet.run: [`Engine] fleets are externally driven (use start/submit)";
  if t.ran then invalid_arg "Fleet.run: one workload per fleet";
  t.ran <- true;
  let t0 = now_ns t in
  start_at t ~now:t0;
  (* Arrivals begin once the slowest initial bring-up path has settled,
     so the measured window isolates scale-out behavior from t=0 boots. *)
  let t_start = t0 +. settle_ns t in
  t.t_measure <- t_start;
  t.last_event <- t_start;
  t.replay_active <- true;
  let rec arrive ta =
    if ta -. t_start <= w.Workload.duration_ns then begin
      let flow = Uksim.Rng.int t.rng 0x3FFFFFFF in
      let req = mk_req t flow ta None in
      t.c_offered <- t.c_offered + 1;
      t.outstanding <- t.outstanding + 1;
      trace t 0xa1 req.rid ta;
      route t req ~now:ta;
      let rate = Float.max 1e-3 (w.Workload.rate_rps (ta -. t_start)) in
      let dt = Uksim.Rng.exponential t.rng (1e9 /. rate) in
      at_abs t (ta +. dt) (fun () -> arrive (ta +. dt))
    end
    else t.replay_active <- false
  in
  at_abs t t_start (fun () -> arrive t_start);
  Option.iter (fun a -> at_abs t t_start (fun () -> tick t a ~now:t_start)) t.auto;
  Uksim.Engine.run t.engine;
  report t
