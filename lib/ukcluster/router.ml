type params = {
  deadline_ns : float;
  attempt_timeout_ns : float;
  hedge : bool;
  hedge_quantile : float;
  hedge_min_ns : float;
}

let params ?(deadline_ns = Uksim.Units.msec 50.0)
    ?(attempt_timeout_ns = Uksim.Units.msec 10.0) ?(hedge = false)
    ?(hedge_quantile = 97.0) ?(hedge_min_ns = Uksim.Units.usec 500.0) () =
  if deadline_ns <= 0.0 || attempt_timeout_ns <= 0.0 then
    invalid_arg "Router.params: deadline/timeout must be positive";
  if hedge_quantile <= 0.0 || hedge_quantile >= 100.0 then
    invalid_arg "Router.params: hedge_quantile out of (0,100)";
  { deadline_ns; attempt_timeout_ns; hedge; hedge_quantile; hedge_min_ns }

(* Retry budget and backoff (base, growth, seeded jitter fraction), the
   admission window's headroom over believed capacity, bytes on the
   wire per request and per reply, and ring points per slot. *)
let max_retries = 2
let retry_base_ns = Uksim.Units.msec 1.0
let retry_factor = 2.0
let retry_jitter = 0.5
let admit_factor = 2.0
let req_bytes = 512
let resp_bytes = 4096
let vnodes = 64

type outcome = Completed | Shed | Expired

type req = {
  rid : int;
  flow : int;
  arrival_ns : float;
  deadline_at : float;
  mutable done_ : bool;
  mutable attempts : int;
  mutable retries_used : int;
  mutable hedged : bool;
  mutable tried : int list; (* host ids already attempted *)
  on_done : outcome -> latency_ns:float -> unit;
}

type attempt = { mutable responded : bool; is_hedge : bool }

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  rng : Uksim.Rng.t;
  net : Netmodel.t;
  front : int;
  p : params;
  fd : Ukfleet.Frontdoor.t; (* members are *slots*, not hosts *)
  slot_host : int array;
  n_hosts : int;
  suspected : bool array; (* by host *)
  collected : bool array; (* by host *)
  removed_slot : bool array;
  draining_slot : bool array;
  submit : host:int -> now_ns:float -> flow:int -> on_reply:(ok:bool -> unit) -> bool;
  capacity_rps : host:int -> float;
  lat : Uksim.Stats.t;
  mutable hedge_cached : float;
  mutable hedge_cached_at : int; (* lat count at last refresh *)
  mutable next_rid : int;
  mutable outstanding : int;
  mutable c_offered : int;
  mutable c_completed : int;
  mutable c_shed : int;
  mutable c_expired : int;
  mutable c_retries : int;
  mutable c_hedges : int;
  mutable c_hedge_wins : int;
  mutable c_cancelled : int;
  mutable c_lost_replies : int;
  mutable trace : int;
}

let mix = Uksim.Rng.mix

let trace t tag a ns =
  t.trace <-
    mix (mix (mix t.trace tag) a) (Int64.to_int (Int64.bits_of_float ns) land max_int)

let at_abs t ns f =
  Uksim.Engine.at t.engine
    (max (Uksim.Clock.cycles_of_ns ns) (Uksim.Clock.cycles t.clock))
    f

(* --- shard table --------------------------------------------------------- *)

let sync_slot t slot =
  if not t.removed_slot.(slot) then begin
    let h = t.slot_host.(slot) in
    if t.suspected.(h) || t.draining_slot.(slot) then
      Ukfleet.Frontdoor.quarantine t.fd slot
    else Ukfleet.Frontdoor.unquarantine t.fd slot
  end

let slots_of_host t host =
  Array.to_list
    (Array.of_seq
       (Seq.filter
          (fun s -> t.slot_host.(s) = host)
          (Seq.init (Array.length t.slot_host) Fun.id)))

let suspect_host t host =
  if host >= 0 && host < t.n_hosts && not t.suspected.(host) then begin
    t.suspected.(host) <- true;
    List.iter (sync_slot t) (slots_of_host t host)
  end

let recover_host t host =
  if host >= 0 && host < t.n_hosts && t.suspected.(host) then begin
    t.suspected.(host) <- false;
    List.iter (sync_slot t) (slots_of_host t host)
  end

(* Dead-and-collected: the slot leaves the ring (arcs remap) until a
   reassignment brings the shard back on a live host. *)
let collect_host t host =
  if host >= 0 && host < t.n_hosts && not t.collected.(host) then begin
    t.collected.(host) <- true;
    List.iter
      (fun s ->
        t.removed_slot.(s) <- true;
        Ukfleet.Frontdoor.remove t.fd s)
      (slots_of_host t host)
  end

(* Control-plane re-admission of a collected host that came back: its
   shards return to their original arcs. *)
let readmit_host t host =
  if host >= 0 && host < t.n_hosts && t.collected.(host) then begin
    t.collected.(host) <- false;
    t.suspected.(host) <- false;
    List.iter
      (fun s ->
        if t.removed_slot.(s) then begin
          t.removed_slot.(s) <- false;
          Ukfleet.Frontdoor.add t.fd s
        end;
        sync_slot t s)
      (slots_of_host t host)
  end

let reassign t ~slot ~host =
  if slot < 0 || slot >= Array.length t.slot_host then
    invalid_arg "Router.reassign: bad slot";
  if host < 0 || host >= t.n_hosts then invalid_arg "Router.reassign: bad host";
  t.slot_host.(slot) <- host;
  t.draining_slot.(slot) <- false;
  if t.removed_slot.(slot) then begin
    t.removed_slot.(slot) <- false;
    (* Ring points derive from the slot id, so re-adding restores the
       exact arcs the slot owned before collection. *)
    Ukfleet.Frontdoor.add t.fd slot
  end;
  sync_slot t slot

let drain_slot t ~slot on =
  if slot >= 0 && slot < Array.length t.slot_host then begin
    t.draining_slot.(slot) <- on;
    sync_slot t slot
  end

let host_of_slot t slot = t.slot_host.(slot)
let collected t host = t.collected.(host)

(* --- admission ----------------------------------------------------------- *)

(* Graceful degradation: the admission window shrinks with the capacity
   the detector still believes in. Suspect half the cluster and the
   front door sheds harder instead of queueing requests into certain
   deadline death. *)
let max_outstanding t =
  let cap = ref 0.0 in
  for h = 0 to t.n_hosts - 1 do
    if (not t.suspected.(h)) && not t.collected.(h) then
      cap := !cap +. t.capacity_rps ~host:h
  done;
  max 8 (int_of_float (admit_factor *. !cap *. t.p.deadline_ns /. 1e9))

(* --- request lifecycle --------------------------------------------------- *)

let finish t req outcome ~now =
  if not req.done_ then begin
    req.done_ <- true;
    t.outstanding <- t.outstanding - 1;
    let lat = now -. req.arrival_ns in
    (match outcome with
    | Completed ->
        t.c_completed <- t.c_completed + 1;
        Uksim.Stats.add t.lat lat
    | Shed -> t.c_shed <- t.c_shed + 1
    | Expired -> t.c_expired <- t.c_expired + 1);
    trace t
      (match outcome with Completed -> 0xc0de | Shed -> 0x54ed | Expired -> 0xdead)
      req.rid now;
    req.on_done outcome ~latency_ns:lat
  end

let salted flow salt = if salt = 0 then flow else mix flow (salt * 0x632be59b)
let no_load _ = 0.0

let rec pick_untried t req salt left =
  match Ukfleet.Frontdoor.pick t.fd ~flow:(salted req.flow salt) ~load:no_load with
  | None -> None
  | Some slot when left > 0 && List.mem t.slot_host.(slot) req.tried ->
      pick_untried t req (salt + 1) (left - 1)
  | some -> some

(* Until the latency estimator has a usable sample, hedge at the
   configured floor — waiting half an attempt-timeout would leave the
   whole warm-up phase unprotected against stragglers. The percentile
   is refreshed every 256 completions: computing it per request would
   re-sort the whole latency history each time. *)
let hedge_delay t =
  let n = Uksim.Stats.count t.lat in
  if n < 64 then t.p.hedge_min_ns
  else begin
    if n - t.hedge_cached_at >= 256 || t.hedge_cached_at = 0 then begin
      t.hedge_cached <-
        Float.max t.p.hedge_min_ns (Uksim.Stats.percentile t.lat t.p.hedge_quantile);
      t.hedge_cached_at <- n
    end;
    t.hedge_cached
  end

let rec attempt t req ~now ~is_hedge =
  if not req.done_ then begin
    let salt0 = req.attempts in
    req.attempts <- req.attempts + 1;
    match pick_untried t req (if is_hedge || salt0 > 0 then salt0 else 0) 16 with
    | None ->
        (* Nothing routable right now; a retry may find a recovered
           host, and the deadline timer is the backstop. *)
        consider_retry t req ~now
    | Some slot ->
        let host = t.slot_host.(slot) in
        req.tried <- host :: req.tried;
        let att = { responded = false; is_hedge } in
        trace t 0xa77e (mix req.rid host) now;
        (match Netmodel.transfer_ns t.net ~src:t.front ~dst:host ~bytes:req_bytes with
        | None -> () (* the request vanished into the partition *)
        | Some d1 ->
            at_abs t (now +. d1) (fun () ->
                let accepted =
                  t.submit ~host ~now_ns:(now +. d1) ~flow:req.flow
                    ~on_reply:(fun ~ok ->
                      (* The reply leaves the host "now" on the shared
                         clock and still has to cross the wire home. *)
                      let tr = Uksim.Clock.ns t.clock in
                      match
                        Netmodel.transfer_ns t.net ~src:host ~dst:t.front
                          ~bytes:resp_bytes
                      with
                      | None -> t.c_lost_replies <- t.c_lost_replies + 1
                      | Some d2 ->
                          at_abs t (tr +. d2) (fun () ->
                              deliver t req att ~ok ~now:(tr +. d2)))
                in
                ignore accepted));
        let t_out = Float.min req.deadline_at (now +. t.p.attempt_timeout_ns) in
        at_abs t t_out (fun () ->
            if (not att.responded) && not req.done_ then consider_retry t req ~now:t_out)
  end

and deliver t req att ~ok ~now =
  if not att.responded then begin
    att.responded <- true;
    if req.done_ then t.c_cancelled <- t.c_cancelled + 1
    else if ok then begin
      if att.is_hedge then t.c_hedge_wins <- t.c_hedge_wins + 1;
      finish t req Completed ~now
    end
    else consider_retry t req ~now (* the host shed it *)
  end

and consider_retry t req ~now =
  if (not req.done_) && req.retries_used < max_retries then begin
    let backoff =
      retry_base_ns
      *. (retry_factor ** float_of_int req.retries_used)
      *. (1.0 +. (retry_jitter *. Uksim.Rng.float t.rng 1.0))
    in
    if now +. backoff < req.deadline_at then begin
      req.retries_used <- req.retries_used + 1;
      t.c_retries <- t.c_retries + 1;
      at_abs t (now +. backoff) (fun () -> attempt t req ~now:(now +. backoff) ~is_hedge:false)
    end
  end

let offer t ~now_ns ~flow ~on_done =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  t.c_offered <- t.c_offered + 1;
  trace t 0x0ffe rid now_ns;
  if t.outstanding >= max_outstanding t then begin
    t.c_shed <- t.c_shed + 1;
    trace t 0x54ed rid now_ns;
    on_done Shed ~latency_ns:0.0
  end
  else begin
    t.outstanding <- t.outstanding + 1;
    let req =
      {
        rid;
        flow;
        arrival_ns = now_ns;
        deadline_at = now_ns +. t.p.deadline_ns;
        done_ = false;
        attempts = 0;
        retries_used = 0;
        hedged = false;
        tried = [];
        on_done;
      }
    in
    (* The deadline timer is the sole expirer: whatever happens to the
       attempts, the caller hears back by the deadline. *)
    at_abs t req.deadline_at (fun () ->
        if not req.done_ then finish t req Expired ~now:req.deadline_at);
    attempt t req ~now:now_ns ~is_hedge:false;
    if t.p.hedge && not req.done_ then begin
      let d = Float.min (hedge_delay t) (t.p.deadline_ns /. 2.0) in
      at_abs t (now_ns +. d) (fun () ->
          if (not req.done_) && not req.hedged then begin
            req.hedged <- true;
            t.c_hedges <- t.c_hedges + 1;
            attempt t req ~now:(now_ns +. d) ~is_hedge:true
          end)
    end
  end

(* --- construction / readout ---------------------------------------------- *)

(* The counts live in the router's fields, not in metric cells:
   {!Uktrace.Registry.reset} must never zero them, since a report's
   [lost] is computed from them. *)
let source t =
  Uktrace.Source.make ~subsystem:"ukcluster" ~name:"router" (fun () ->
      [
        ("offered", Uktrace.Metric.Count t.c_offered);
        ("completed", Uktrace.Metric.Count t.c_completed);
        ("shed", Uktrace.Metric.Count t.c_shed);
        ("expired", Uktrace.Metric.Count t.c_expired);
        ("retries", Uktrace.Metric.Count t.c_retries);
        ("hedges", Uktrace.Metric.Count t.c_hedges);
        ("hedge_wins", Uktrace.Metric.Count t.c_hedge_wins);
        ("cancelled", Uktrace.Metric.Count t.c_cancelled);
        ("lost_replies", Uktrace.Metric.Count t.c_lost_replies);
        ("outstanding", Uktrace.Metric.Level (float_of_int t.outstanding));
      ])

let create ~clock ~engine ~seed ~net ~front ~n_hosts ~params:p ~submit
    ~capacity_rps () =
  if n_hosts < 1 then invalid_arg "Router.create: need at least one host";
  let fd = Ukfleet.Frontdoor.create ~vnodes Ukfleet.Frontdoor.Consistent_hash in
  for s = 0 to n_hosts - 1 do
    Ukfleet.Frontdoor.add fd s
  done;
  let t =
    {
      clock;
      engine;
      rng = Uksim.Rng.create (seed lxor 0x20175);
      net;
      front;
      p;
      fd;
      slot_host = Array.init n_hosts Fun.id;
      n_hosts;
      suspected = Array.make n_hosts false;
      collected = Array.make n_hosts false;
      removed_slot = Array.make n_hosts false;
      draining_slot = Array.make n_hosts false;
      submit;
      capacity_rps;
      lat = Uksim.Stats.create ();
      hedge_cached = 0.0;
      hedge_cached_at = 0;
      next_rid = 0;
      outstanding = 0;
      c_offered = 0;
      c_completed = 0;
      c_shed = 0;
      c_expired = 0;
      c_retries = 0;
      c_hedges = 0;
      c_hedge_wins = 0;
      c_cancelled = 0;
      c_lost_replies = 0;
      trace = 0x2007e5 lxor seed;
    }
  in
  Uktrace.Registry.register (source t);
  t

let outstanding t = t.outstanding
let latency t = t.lat
let trace_hash t = t.trace
