module C = Uktrace.Metric.Counter

type endpoint = {
  engine : Uksim.Engine.t;
  latency_cycles : int;
  cycles_per_byte : float;
  loss : float;
  duplicate : float;
  rng : Uksim.Rng.t;
  mutable peer : endpoint option;
  mutable receiver : (Netbuf.t -> unit) option;
  mutable line_free_at : int; (* serialization: next cycle the line is free *)
  group : Uktrace.Registry.group;
  rx_frames : C.t;
  rx_bytes : C.t;
  tx_frames : C.t;
  dropped : C.t;
}

let make engine ~latency_ns ~bandwidth_gbps ~loss ~duplicate ~rng =
  let cycles_per_byte = Uksim.Clock.ghz *. 8.0 /. bandwidth_gbps in
  let group = Uktrace.Registry.group ~subsystem:"uknetdev" "wire" in
  let rx_frames = Uktrace.Registry.counter group "rx_frames" in
  let rx_bytes = Uktrace.Registry.counter group "rx_bytes" in
  let tx_frames = Uktrace.Registry.counter group "tx_frames" in
  let dropped = Uktrace.Registry.counter group "dropped" in
  {
    engine;
    latency_cycles = Uksim.Clock.cycles_of_ns latency_ns;
    cycles_per_byte;
    loss;
    duplicate;
    rng;
    peer = None;
    receiver = None;
    line_free_at = 0;
    group;
    rx_frames;
    rx_bytes;
    tx_frames;
    dropped;
  }

let create_pair ~engine ?(latency_ns = 5000.0) ?(bandwidth_gbps = 10.0) ?(loss = 0.0)
    ?(duplicate = 0.0) ?(seed = 0x5eed) () =
  if loss < 0.0 || loss >= 1.0 || duplicate < 0.0 || duplicate >= 1.0 then
    invalid_arg "Wire.create_pair: probabilities must be in [0,1)";
  let rng = Uksim.Rng.create seed in
  let a = make engine ~latency_ns ~bandwidth_gbps ~loss ~duplicate ~rng in
  let b = make engine ~latency_ns ~bandwidth_gbps ~loss ~duplicate ~rng:(Uksim.Rng.split rng) in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let deliver ep nb =
  C.incr ep.rx_frames;
  C.add ep.rx_bytes (Netbuf.len nb);
  match ep.receiver with Some f -> f nb | None -> Netbuf.recycle nb

let rec transmit ep peer nb =
  let now = Uksim.Clock.cycles (Uksim.Engine.clock ep.engine) in
  (* Serialize on the line: a frame occupies the wire for its
     transmission time at line rate. *)
  let start = max now ep.line_free_at in
  let tx_time = int_of_float (ceil (float_of_int (Netbuf.len nb) *. ep.cycles_per_byte)) in
  ep.line_free_at <- start + tx_time;
  Uksim.Engine.at ep.engine (start + tx_time + ep.latency_cycles) (fun () -> deliver peer nb);
  if ep.duplicate > 0.0 && Uksim.Rng.float ep.rng 1.0 < ep.duplicate then
    (* A duplicated frame occupies the line again; the duplicate shares
       the original's storage (the wire does not copy). *)
    transmit ep peer (Netbuf.share nb)

let send ep nb =
  match ep.peer with
  | None -> invalid_arg "Wire.send: unconnected endpoint"
  | Some peer ->
      C.incr ep.tx_frames;
      if ep.loss > 0.0 && Uksim.Rng.float ep.rng 1.0 < ep.loss then begin
        C.incr ep.dropped;
        Netbuf.recycle nb
      end
      else transmit ep peer nb

let set_receiver ep f = ep.receiver <- f
let attach_sink ep = ep.receiver <- None
let attach_echo ep = ep.receiver <- Some (fun nb -> send ep nb)

let source ep = Uktrace.Registry.source ep.group
