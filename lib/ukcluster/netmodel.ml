module C = Uktrace.Metric.Counter

type t = {
  n : int;
  latency_ns : float array array;
  bytes_per_ns : float array array;
  blocked : bool array array; (* blocked.(src).(dst): directed *)
  c_transfers : C.t;
  c_bytes : C.t;
  c_dropped : C.t;
}

let gbps_to_bytes_per_ns g = g *. 1e9 /. 8.0 /. 1e9

let create ?(latency_ns = 50_000.0) ?(gbps = 10.0) ~nodes () =
  if nodes < 1 then invalid_arg "Netmodel.create: need at least one node";
  if latency_ns < 0.0 || gbps <= 0.0 then
    invalid_arg "Netmodel.create: bad link parameters";
  let group = Uktrace.Registry.group ~subsystem:"ukcluster" "net" in
  let c_transfers = Uktrace.Registry.counter group "transfers" in
  let c_bytes = Uktrace.Registry.counter group "bytes" in
  let c_dropped = Uktrace.Registry.counter group "dropped" in
  let t =
    {
      n = nodes;
      latency_ns = Array.make_matrix nodes nodes latency_ns;
      bytes_per_ns = Array.make_matrix nodes nodes (gbps_to_bytes_per_ns gbps);
      blocked = Array.make_matrix nodes nodes false;
      c_transfers;
      c_bytes;
      c_dropped;
    }
  in
  for i = 0 to nodes - 1 do
    t.latency_ns.(i).(i) <- 0.0
  done;
  t

let check t src dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Netmodel: node id out of range"

let set_link t ~src ~dst ~latency_ns ~gbps =
  check t src dst;
  t.latency_ns.(src).(dst) <- latency_ns;
  t.bytes_per_ns.(src).(dst) <- gbps_to_bytes_per_ns gbps

let block t ~src ~dst =
  check t src dst;
  let fresh = not t.blocked.(src).(dst) in
  t.blocked.(src).(dst) <- true;
  fresh

let unblock t ~src ~dst =
  check t src dst;
  let was = t.blocked.(src).(dst) in
  t.blocked.(src).(dst) <- false;
  was

let reachable t ~src ~dst =
  check t src dst;
  not t.blocked.(src).(dst)

let transfer_ns t ~src ~dst ~bytes =
  check t src dst;
  if src = dst then Some 0.0
  else if t.blocked.(src).(dst) then begin
    C.incr t.c_dropped;
    None
  end
  else begin
    C.incr t.c_transfers;
    C.add t.c_bytes bytes;
    Some (t.latency_ns.(src).(dst) +. (float_of_int bytes /. t.bytes_per_ns.(src).(dst)))
  end

let partition t ~a ~b =
  List.iter (fun x -> List.iter (fun y -> ignore (block t ~src:x ~dst:y);
                                          ignore (block t ~src:y ~dst:x)) b) a

let partition_asym t ~from_ ~to_ =
  List.iter (fun x -> List.iter (fun y -> ignore (block t ~src:x ~dst:y)) to_) from_

let heal t ~a ~b =
  List.iter (fun x -> List.iter (fun y -> ignore (unblock t ~src:x ~dst:y);
                                          ignore (unblock t ~src:y ~dst:x)) b) a
