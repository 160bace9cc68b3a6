type status = Alive | Suspect | Dead
type params = { interval_ns : float; suspect_phi : float }

(* The phi at which a host is buried, and the size of a ping or pong. *)
let dead_phi = 8.0
let ping_bytes = 64

let params ?(interval_ns = Uksim.Units.msec 5.0) ?(suspect_phi = 1.0) () =
  if interval_ns <= 0.0 then invalid_arg "Detector.params: interval must be positive";
  if suspect_phi > dead_phi then
    invalid_arg "Detector.params: suspect_phi above the dead threshold";
  { interval_ns; suspect_phi }

type hstate = {
  host : int;
  mutable last_pong_ns : float;
  mutable mean_gap_ns : float; (* EWMA of pong inter-arrivals *)
  mutable phi : float; (* as of the last check *)
  mutable status : status;
}

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  rng : Uksim.Rng.t;
  net : Netmodel.t;
  front : int;
  p : params;
  probe : int -> bool;
  running : unit -> bool;
  on_suspect : now_ns:float -> int -> unit;
  on_recover : now_ns:float -> int -> unit;
  on_dead : now_ns:float -> int -> unit;
  hs : hstate array;
  mutable c_suspects : int;
  mutable c_recovers : int;
  mutable c_deads : int;
}

(* Exponential-arrival phi accrual: phi = -log10 P(gap > observed),
   with inter-pong gaps modelled exponential at the observed mean. A
   pong exactly on schedule keeps phi ~ 0.43; each missed interval adds
   ~0.43 more, so suspect_phi trades detection delay for false-positive
   rate directly. *)
let log10_e = 0.4342944819032518

let phi_of hs ~now = log10_e *. (now -. hs.last_pong_ns) /. hs.mean_gap_ns

let status t host =
  (Array.to_list t.hs
  |> List.find (fun h -> h.host = host))
    .status

let pong t hs ~now =
  let gap = now -. hs.last_pong_ns in
  hs.last_pong_ns <- now;
  hs.mean_gap_ns <- (0.8 *. hs.mean_gap_ns) +. (0.2 *. gap);
  (* Dead is sticky: a collected host has lost its ring arc; a late pong
     does not resurrect it (rejoin is the owner's decision). *)
  if hs.status = Suspect then begin
    hs.status <- Alive;
    t.c_recovers <- t.c_recovers + 1;
    t.on_recover ~now_ns:now hs.host
  end

let check t hs ~now =
  hs.phi <- phi_of hs ~now;
  match hs.status with
  | Dead -> ()
  | Alive when hs.phi >= t.p.suspect_phi ->
      hs.status <- Suspect;
      t.c_suspects <- t.c_suspects + 1;
      t.on_suspect ~now_ns:now hs.host;
      if hs.phi >= dead_phi then begin
        hs.status <- Dead;
        t.c_deads <- t.c_deads + 1;
        t.on_dead ~now_ns:now hs.host
      end
  | Suspect when hs.phi >= dead_phi ->
      hs.status <- Dead;
      t.c_deads <- t.c_deads + 1;
      t.on_dead ~now_ns:now hs.host
  | Alive | Suspect -> ()

let at_abs t ns f =
  Uksim.Engine.at t.engine
    (max (Uksim.Clock.cycles_of_ns ns) (Uksim.Clock.cycles t.clock))
    f

let rec beat t hs ~now =
  check t hs ~now;
  (match Netmodel.transfer_ns t.net ~src:t.front ~dst:hs.host ~bytes:ping_bytes with
  | None -> () (* ping lost on the forward path *)
  | Some d1 ->
      at_abs t (now +. d1) (fun () ->
          (* The host answers only if it is actually responsive when the
             ping arrives; the pong then races the reverse path. *)
          if t.probe hs.host then
            match
              Netmodel.transfer_ns t.net ~src:hs.host ~dst:t.front ~bytes:ping_bytes
            with
            | None -> () (* pong lost: the asymmetric-partition signature *)
            | Some d2 -> at_abs t (now +. d1 +. d2) (fun () -> pong t hs ~now:(now +. d1 +. d2))));
  (* Seeded dither keeps the gap history non-degenerate and desynchronizes
     the per-host heartbeat trains. *)
  let dt = t.p.interval_ns *. (0.95 +. (0.1 *. Uksim.Rng.float t.rng 1.0)) in
  at_abs t (now +. dt) (fun () -> if t.running () then beat t hs ~now:(now +. dt))

let nop ~now_ns:_ _ = ()

(* The counts live in the detector's fields: {!Uktrace.Registry.reset}
   must never zero them, since a cluster report is read from them. *)
let source t =
  Uktrace.Source.make ~subsystem:"ukcluster" ~name:"detector" (fun () ->
      ("suspects", Uktrace.Metric.Count t.c_suspects)
      :: ("recovers", Uktrace.Metric.Count t.c_recovers)
      :: ("deads", Uktrace.Metric.Count t.c_deads)
      :: List.concat_map
           (fun hs ->
             [
               (Printf.sprintf "phi_%d" hs.host, Uktrace.Metric.Level hs.phi);
               ( Printf.sprintf "status_%d" hs.host,
                 Uktrace.Metric.Level
                   (match hs.status with Alive -> 0.0 | Suspect -> 1.0 | Dead -> 2.0) );
             ])
           (Array.to_list t.hs))

let create ~clock ~engine ~rng ~net ~front ~hosts ~params:p ~probe ~running
    ?(on_suspect = nop) ?(on_recover = nop) ?(on_dead = nop) () =
  let now = Uksim.Clock.ns clock in
  let t =
    {
      clock;
      engine;
      rng;
      net;
      front;
      p;
      probe;
      running;
      on_suspect;
      on_recover;
      on_dead;
      hs =
        Array.of_list
          (List.map
             (fun h ->
               {
                 host = h;
                 last_pong_ns = now;
                 mean_gap_ns = p.interval_ns;
                 phi = 0.0;
                 status = Alive;
               })
             hosts);
      c_suspects = 0;
      c_recovers = 0;
      c_deads = 0;
    }
  in
  Uktrace.Registry.register (source t);
  t

let start t =
  let now = Uksim.Clock.ns t.clock in
  Array.iter
    (fun hs ->
      (* Stagger first pings across the interval so n hosts never probe
         in one burst. *)
      let dt = Uksim.Rng.float t.rng t.p.interval_ns in
      hs.last_pong_ns <- now +. dt;
      at_abs t (now +. dt) (fun () -> beat t hs ~now:(now +. dt)))
    t.hs
