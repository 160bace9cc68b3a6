type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  rng : Uksim.Rng.t;
  net : Netmodel.t;
  hosts : Host.t array;
  router : Router.t;
  detector : Detector.t;
  image : Ukfleet.Image.t;
  mutable loading : bool;
  mutable c_migrations : int;
  mutable c_mig_aborts : int;
  mutable last_pause_ns : float;
  mutable pending_clone : (int * int * int) option; (* src, dst, slot *)
}

let default_classes n =
  (* A heterogeneous default: every third host is ARM-class. *)
  Array.init n (fun i -> if i mod 3 = 2 then Host.Arm else Host.X86)

let create ?(seed = 42) ?(n_hosts = 4) ?classes ?(image = Ukfleet.Image.httpd)
    ?(detector_params = Detector.params ()) ?(router_params = Router.params ()) () =
  if n_hosts < 2 then invalid_arg "Cluster.create: need at least two hosts";
  let classes = Option.value classes ~default:(default_classes n_hosts) in
  if Array.length classes <> n_hosts then
    invalid_arg "Cluster.create: classes/n_hosts mismatch";
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let rng = Uksim.Rng.create (seed lxor 0xc105) in
  (* Node ids: hosts are 0..n-1, the front tier is node n — it shares
     the fabric, so partitions can isolate it from any subset. *)
  let net = Netmodel.create ~nodes:(n_hosts + 1) () in
  let hosts =
    Array.init n_hosts (fun i ->
        Host.create ~clock ~engine ~seed ~id:i ~cls:classes.(i) ~image ())
  in
  let router =
    Router.create ~clock ~engine ~seed ~net ~front:n_hosts ~n_hosts
      ~params:router_params
      ~submit:(fun ~host ~now_ns ~flow ~on_reply ->
        Host.submit hosts.(host) ~now_ns ~flow ~on_reply)
      ~capacity_rps:(fun ~host -> Host.capacity_rps hosts.(host))
      ()
  in
  let tref = ref None in
  let detector =
    Detector.create ~clock ~engine ~rng:(Uksim.Rng.create (seed lxor 0xbea7))
      ~net ~front:n_hosts
      ~hosts:(List.init n_hosts Fun.id)
      ~params:detector_params
      ~probe:(fun h -> Host.state hosts.(h) = Host.Up)
      ~running:(fun () ->
        match !tref with
        | None -> true
        | Some t -> t.loading || Router.outstanding router > 0)
      ~on_suspect:(fun ~now_ns:_ h -> Router.suspect_host router h)
      ~on_recover:(fun ~now_ns:_ h -> Router.recover_host router h)
      ~on_dead:(fun ~now_ns h ->
        Router.collect_host router h;
        match !tref with
        | None -> ()
        | Some t -> (
            (* The kill+clone baseline is reactive: the clone only
               starts once the detector has buried the source. *)
            match t.pending_clone with
            | Some (src, dst, slot) when src = h ->
                t.pending_clone <- None;
                let clone_ns =
                  (Ukfleet.Fleet.costs (Host.fleet t.hosts.(dst)))
                    .Ukfleet.Fleet.clone_ns
                  +. Option.value
                       (Netmodel.transfer_ns t.net ~src ~dst
                          ~bytes:(Uksim.Units.mib t.image.Ukfleet.Image.mem_mb))
                       ~default:infinity
                in
                if clone_ns < infinity then
                  Uksim.Engine.at t.engine
                    (max
                       (Uksim.Clock.cycles_of_ns (now_ns +. clone_ns))
                       (Uksim.Clock.cycles t.clock))
                    (fun () -> Router.reassign t.router ~slot ~host:dst)
            | _ -> ()))
      ()
  in
  let t =
    {
      clock;
      engine;
      rng;
      net;
      hosts;
      router;
      detector;
      image;
      loading = false;
      c_migrations = 0;
      c_mig_aborts = 0;
      last_pause_ns = 0.0;
      pending_clone = None;
    }
  in
  tref := Some t;
  t

let clock t = t.clock
let engine t = t.engine
let net t = t.net
let router t = t.router
let detector t = t.detector
let host t i = t.hosts.(i)
let front t = Array.length t.hosts
let last_pause_ns t = t.last_pause_ns

let at_abs t ns f =
  Uksim.Engine.at t.engine
    (max (Uksim.Clock.cycles_of_ns ns) (Uksim.Clock.cycles t.clock))
    f

(* --- fault plane --------------------------------------------------------- *)

(* The Faulthost primitives over this cluster: hosts by id, the front
   tier as node [n_hosts], links through the shared Netmodel. Recovery
   re-admits a collected host's shards — the control-plane half the
   sticky-dead detector deliberately leaves to us. *)
let ops t =
  {
    Ukfault.Faulthost.crash = (fun ~now_ns h -> Host.crash t.hosts.(h) ~now_ns);
    recover =
      (fun ~now_ns h ->
        let did = Host.recover t.hosts.(h) ~now_ns in
        if did then begin
          Router.readmit_host t.router h;
          Router.recover_host t.router h
        end;
        did);
    freeze = (fun ~now_ns h ~dur_ns -> Host.freeze t.hosts.(h) ~now_ns ~dur_ns);
    block = (fun ~now_ns:_ ~src ~dst -> Netmodel.block t.net ~src ~dst);
    unblock = (fun ~now_ns:_ ~src ~dst -> Netmodel.unblock t.net ~src ~dst);
  }

(* --- migration ----------------------------------------------------------- *)

let footprint_bytes t = Uksim.Units.mib t.image.Ukfleet.Image.mem_mb

let alive_dst t ~src ~avoid =
  let best = ref None in
  Array.iter
    (fun h ->
      let i = Host.id h in
      if i <> src && i <> avoid && Host.up h && !best = None then best := Some i)
    t.hosts;
  !best

let rec start_migration t ~at_ns ~slot ~src ~dst ~attempt =
  let fp = footprint_bytes t in
  Migrate.start ~clock:t.clock ~engine:t.engine ~net:t.net ~src ~dst
    ~src_up:(fun () -> Host.up t.hosts.(src))
    ~dst_up:(fun () -> Host.up t.hosts.(dst))
    ~footprint_bytes:fp
    ~dirty_bps:(fun () -> 0.25 *. float_of_int fp)
    ~on_drain:(fun ~now_ns:_ on ->
      Router.drain_slot t.router ~slot on;
      Ukfleet.Fleet.set_draining (Host.fleet t.hosts.(src)) on)
    ~on_commit:(fun ~now_ns:_ ~pause_ns ->
      t.c_migrations <- t.c_migrations + 1;
      t.last_pause_ns <- pause_ns;
      Router.reassign t.router ~slot ~host:dst)
    ~on_abort:(fun ~now_ns reason ->
      t.c_mig_aborts <- t.c_mig_aborts + 1;
      (* Abort-and-restart: pick a live destination and go again
         after a short backoff — unless the *source* died, in which
         case the detector/collection path owns recovery. *)
      if reason <> Migrate.Src_down && attempt < 4 then
        match alive_dst t ~src ~avoid:dst with
        | Some dst' ->
            start_migration t
              ~at_ns:(now_ns +. Uksim.Units.msec 2.0)
              ~slot ~src ~dst:dst' ~attempt:(attempt + 1)
        | None -> ())
    ~at_ns

let migrate t ~at_ns ~src ~dst =
  if src = dst then invalid_arg "Cluster.migrate: src = dst";
  match Router.slots_of_host t.router src with
  | [] -> invalid_arg "Cluster.migrate: src owns no shard"
  | slot :: _ -> start_migration t ~at_ns ~slot ~src ~dst ~attempt:0

(* The naive baseline: kill the source outright and recover
   reactively. Nothing happens until the failure detector walks the
   crash through suspect to dead; only then does the cold clone
   (snapshot restore + footprint over the wire) start toward the
   destination. In-flight work dies with the source, the shard's flows
   eat timeouts until suspicion lands, and the arcs remap twice —
   everything live migration's drain-and-copy avoids. *)
let kill_clone t ~at_ns ~src ~dst =
  if src = dst then invalid_arg "Cluster.kill_clone: src = dst";
  match Router.slots_of_host t.router src with
  | [] -> invalid_arg "Cluster.kill_clone: src owns no shard"
  | slot :: _ ->
      at_abs t at_ns (fun () ->
          t.pending_clone <- Some (src, dst, slot);
          ignore (Host.crash t.hosts.(src) ~now_ns:at_ns))

(* --- load + report ------------------------------------------------------- *)

type report = {
  offered : int;
  completed : int;
  shed : int;
  expired : int;
  lost : int;
  retries : int;
  hedges : int;
  hedge_wins : int;
  cancelled : int;
  lost_replies : int;
  suspects : int;
  recovers : int;
  deads : int;
  migrations : int;
  migration_aborts : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
  trace_hash : int;
}

let mix = Uksim.Rng.mix

let trace_hash t =
  let detected = Uktrace.Source.count (Detector.source t.detector) in
  Array.fold_left
    (fun h host -> mix h (Ukfleet.Fleet.trace_hash (Host.fleet host)))
    (mix (Router.trace_hash t.router)
       (mix (detected "suspects") (mix (detected "recovers") (detected "deads"))))
    t.hosts

let settle_ns t =
  Array.fold_left (fun m h -> Float.max m (Host.settle_ns h)) 0.0 t.hosts
  +. Uksim.Units.msec 1.0

let run t (wl : Ukfleet.Workload.t) =
  let t0 = settle_ns t in
  t.loading <- true;
  Detector.start t.detector;
  let rec arrive now =
    if now -. t0 >= wl.Ukfleet.Workload.duration_ns then t.loading <- false
    else begin
      Router.offer t.router ~now_ns:now
        ~flow:(Uksim.Rng.int t.rng 4096)
        ~on_done:(fun _ ~latency_ns:_ -> ());
      let rate = wl.Ukfleet.Workload.rate_rps (now -. t0) in
      let dt =
        if rate <= 0.01 then Uksim.Units.msec 1.0
        else Uksim.Rng.exponential t.rng (1e9 /. rate)
      in
      at_abs t (now +. dt) (fun () -> arrive (now +. dt))
    end
  in
  at_abs t t0 (fun () -> arrive t0);
  Uksim.Engine.run t.engine;
  let routed = Uktrace.Source.count (Router.source t.router) in
  let detected = Uktrace.Source.count (Detector.source t.detector) in
  let lat = Router.latency t.router in
  let conv ns = ns /. 1e3 in
  let n = Uksim.Stats.count lat in
  {
    offered = routed "offered";
    completed = routed "completed";
    shed = routed "shed";
    expired = routed "expired";
    lost =
      routed "offered" - routed "completed" - routed "shed" - routed "expired";
    retries = routed "retries";
    hedges = routed "hedges";
    hedge_wins = routed "hedge_wins";
    cancelled = routed "cancelled";
    lost_replies = routed "lost_replies";
    suspects = detected "suspects";
    recovers = detected "recovers";
    deads = detected "deads";
    migrations = t.c_migrations;
    migration_aborts = t.c_mig_aborts;
    mean_us = (if n = 0 then 0.0 else conv (Uksim.Stats.mean lat));
    p50_us = (if n = 0 then 0.0 else conv (Uksim.Stats.percentile lat 50.0));
    p99_us = (if n = 0 then 0.0 else conv (Uksim.Stats.percentile lat 99.0));
    p999_us = (if n = 0 then 0.0 else conv (Uksim.Stats.percentile lat 99.9));
    max_us = (if n = 0 then 0.0 else conv (Uksim.Stats.max lat));
    trace_hash = trace_hash t;
  }
