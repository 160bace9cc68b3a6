module C = Uktrace.Metric.Counter

type endpoint = {
  engine : Uksim.Engine.t;
  latency_cycles : int;
  cycles_per_byte : float;
  mutable peer : endpoint option;
  mutable receiver : (Netbuf.t -> unit) option;
  mutable line_free_at : int; (* serialization: next cycle the line is free *)
  group : Uktrace.Registry.group;
  rx_frames : C.t;
  rx_bytes : C.t;
  tx_frames : C.t;
}

let make engine ~latency_ns ~bandwidth_gbps =
  let cycles_per_byte = Uksim.Clock.ghz *. 8.0 /. bandwidth_gbps in
  let group = Uktrace.Registry.group ~subsystem:"uknetdev" "wire" in
  let rx_frames = Uktrace.Registry.counter group "rx_frames" in
  let rx_bytes = Uktrace.Registry.counter group "rx_bytes" in
  let tx_frames = Uktrace.Registry.counter group "tx_frames" in
  {
    engine;
    latency_cycles = Uksim.Clock.cycles_of_ns latency_ns;
    cycles_per_byte;
    peer = None;
    receiver = None;
    line_free_at = 0;
    group;
    rx_frames;
    rx_bytes;
    tx_frames;
  }

let create_pair ~engine ?(latency_ns = 5000.0) ?(bandwidth_gbps = 10.0) () =
  let a = make engine ~latency_ns ~bandwidth_gbps in
  let b = make engine ~latency_ns ~bandwidth_gbps in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let deliver ep nb =
  C.incr ep.rx_frames;
  C.add ep.rx_bytes (Netbuf.len nb);
  match ep.receiver with Some f -> f nb | None -> Netbuf.recycle nb

let transmit ep peer nb =
  let now = Uksim.Clock.cycles (Uksim.Engine.clock ep.engine) in
  (* Serialize on the line: a frame occupies the wire for its
     transmission time at line rate. *)
  let start = max now ep.line_free_at in
  let tx_time = int_of_float (ceil (float_of_int (Netbuf.len nb) *. ep.cycles_per_byte)) in
  ep.line_free_at <- start + tx_time;
  Uksim.Engine.at ep.engine (start + tx_time + ep.latency_cycles) (fun () -> deliver peer nb)

let send ep nb =
  match ep.peer with
  | None -> invalid_arg "Wire.send: unconnected endpoint"
  | Some peer ->
      C.incr ep.tx_frames;
      transmit ep peer nb

let set_receiver ep f = ep.receiver <- f
let attach_sink ep = ep.receiver <- None
let attach_echo ep = ep.receiver <- Some (fun nb -> send ep nb)

let source ep = Uktrace.Registry.source ep.group
