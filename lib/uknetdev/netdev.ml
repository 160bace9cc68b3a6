type mode = Polling | Interrupt_driven

type rx_path =
  | Zero_copy
  | Copy_into of (unit -> Netbuf.t option)

type queue_conf = {
  rx_path : rx_path;
  mode : mode;
  rx_handler : (unit -> unit) option;
}

type t = {
  name : string;
  mtu : int;
  max_queues : int;
  configure_queue : qid:int -> queue_conf -> unit;
  tx_burst : qid:int -> Netbuf.t array -> int;
  tx_room : qid:int -> int;
  rx_burst : qid:int -> max:int -> Netbuf.t list;
  rx_pending : qid:int -> int;
  source : Uktrace.Source.t;
}

module C = Uktrace.Metric.Counter

type counters = {
  group : Uktrace.Registry.group;
  tx_pkts : C.t;
  tx_bytes : C.t;
  tx_kicks : C.t;
  rx_pkts : C.t;
  rx_bytes : C.t;
  rx_irqs : C.t;
  rx_dropped : C.t;
}

let counters name =
  let group = Uktrace.Registry.group ~subsystem:"uknetdev" name in
  let c = Uktrace.Registry.counter group in
  let tx_pkts = c "tx_pkts" in
  let tx_bytes = c "tx_bytes" in
  let tx_kicks = c "tx_kicks" in
  let rx_pkts = c "rx_pkts" in
  let rx_bytes = c "rx_bytes" in
  let rx_irqs = c "rx_irqs" in
  let rx_dropped = c "rx_dropped" in
  { group; tx_pkts; tx_bytes; tx_kicks; rx_pkts; rx_bytes; rx_irqs; rx_dropped }

let source c = Uktrace.Registry.source c.group

let count_tx c ~pkts ~bytes =
  C.add c.tx_pkts pkts;
  C.add c.tx_bytes bytes

let count_kick c = C.incr c.tx_kicks

module Rxq = struct
  type t = {
    c : counters;
    clock : Uksim.Clock.t;
    engine : Uksim.Engine.t;
    ring_size : int;
    pkt_cost : int;
    ring : Netbuf.t Queue.t;
    mutable conf : queue_conf option;
    mutable irq_armed : bool;
  }

  let create c ~clock ~engine ~ring_size ~pkt_cost =
    { c; clock; engine; ring_size; pkt_cost; ring = Queue.create (); conf = None;
      irq_armed = false }

  let configure q conf =
    q.conf <- Some conf;
    q.irq_armed <- conf.mode = Interrupt_driven

  let drop q nb =
    C.incr q.c.rx_dropped;
    Netbuf.recycle nb

  let deliver q nb =
    match q.conf with
    | None -> drop q nb
    | Some _ when Queue.length q.ring >= q.ring_size -> drop q nb
    | Some conf -> (
        Queue.push nb q.ring;
        match (conf.mode, conf.rx_handler) with
        | Interrupt_driven, Some handler when q.irq_armed ->
            (* Inject once; the line stays inactive until [burst] drains
               the ring and re-arms it (the paper's interrupt-storm
               avoidance). *)
            q.irq_armed <- false;
            C.incr q.c.rx_irqs;
            Uksim.Clock.advance q.clock Uksim.Cost.interrupt_delivery;
            handler ()
        | (Interrupt_driven | Polling), _ -> ())

  let catch_up q = Uksim.Engine.run ~until:(Uksim.Clock.cycles q.clock) q.engine

  let received q nb =
    C.incr q.c.rx_pkts;
    C.add q.c.rx_bytes (Netbuf.len nb)

  let burst q ~max:max_pkts =
    catch_up q;
    match q.conf with
    | None -> []
    | Some conf ->
        let rec take acc n =
          if n >= max_pkts then List.rev acc
          else
            match Queue.take_opt q.ring with
            | None -> List.rev acc
            | Some nb -> (
                Uksim.Clock.advance q.clock q.pkt_cost;
                match conf.rx_path with
                | Zero_copy ->
                    received q nb;
                    take (nb :: acc) (n + 1)
                | Copy_into rx_alloc -> (
                    match rx_alloc () with
                    | None ->
                        drop q nb;
                        take acc (n + 1)
                    | Some dst ->
                        Uksim.Clock.advance q.clock (Uksim.Cost.memcpy (Netbuf.len nb));
                        Netbuf.copy_into nb dst;
                        received q nb;
                        Netbuf.recycle nb;
                        take (dst :: acc) (n + 1)))
        in
        let pkts = take [] 0 in
        if conf.mode = Interrupt_driven && Queue.is_empty q.ring then q.irq_armed <- true;
        pkts

  let pending q =
    catch_up q;
    Queue.length q.ring
end
