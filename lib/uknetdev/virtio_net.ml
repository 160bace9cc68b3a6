type backend = Vhost_net | Vhost_user

(* Guest-side per-packet descriptor work. vhost-user avoids the
   notification bookkeeping of the split ring. *)
let guest_tx_cost = function Vhost_net -> 115 | Vhost_user -> 92
let guest_rx_cost = 88

(* Host-side per-packet path: tap + kernel bridge vs. DPDK poll-mode. *)
let host_pkt_cost = function Vhost_net -> 2900 | Vhost_user -> 250
let host_batch = 64
let vhost_user_poll_cycles = 1200 (* ~0.33us poll interval when idle *)

type state = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  backend : backend;
  wire : Wire.endpoint;
  ring_size : int;
  rxq : Netdev.Rxq.t;
  tx_ring : Netbuf.t Queue.t;
  mutable drain_scheduled : bool;
  counters : Netdev.counters;
}

let catch_up t = Uksim.Engine.run ~until:(Uksim.Clock.cycles t.clock) t.engine

(* Host drain loop for the tx queue: processes packets in batches at host
   speed, forwarding each onto the wire. Runs on the engine (host core). *)
let rec schedule_drain t =
  if not t.drain_scheduled then begin
    t.drain_scheduled <- true;
    let delay =
      match t.backend with
      | Vhost_net -> host_pkt_cost Vhost_net (* wakes after kick, first pkt cost *)
      | Vhost_user -> vhost_user_poll_cycles
    in
    Uksim.Engine.after t.engine delay (fun () -> drain t)
  end

and drain t =
  t.drain_scheduled <- false;
  if not (Queue.is_empty t.tx_ring) then begin
    let n = min host_batch (Queue.length t.tx_ring) in
    for _ = 1 to n do
      Wire.send t.wire (Queue.pop t.tx_ring)
    done;
    (* The batch took host time; continue draining afterwards. *)
    t.drain_scheduled <- true;
    Uksim.Engine.after t.engine (n * host_pkt_cost t.backend) (fun () -> drain t)
  end
  (* Ring empty: the next tx_burst re-arms the drain (for vhost-user one
     poll interval out — the poller's pickup latency — so the event queue
     stays finite in simulation). *)

let create ~clock ~engine ~backend ~wire ?(ring_size = 256) () =
  if ring_size <= 0 then invalid_arg "Virtio_net.create";
  let name =
    match backend with Vhost_net -> "virtio-net/vhost-net" | Vhost_user -> "virtio-net/vhost-user"
  in
  let counters = Netdev.counters name in
  let t =
    {
      clock;
      engine;
      backend;
      wire;
      ring_size;
      rxq = Netdev.Rxq.create counters ~clock ~engine ~ring_size ~pkt_cost:guest_rx_cost;
      tx_ring = Queue.create ();
      drain_scheduled = false;
      counters;
    }
  in
  Wire.set_receiver wire (Some (Netdev.Rxq.deliver t.rxq));
  (* One queue pair: queue 0 is the only one. *)
  let check_qid qid = if qid <> 0 then invalid_arg "Virtio_net: bad queue id" in
  let configure_queue ~qid conf =
    check_qid qid;
    Netdev.Rxq.configure t.rxq conf
  in
  let tx_burst ~qid (pkts : Netbuf.t array) =
    check_qid qid;
    catch_up t;
    let was_empty = Queue.is_empty t.tx_ring in
    let room = t.ring_size - Queue.length t.tx_ring in
    let n = min room (Array.length pkts) in
    let bytes = ref 0 in
    for i = 0 to n - 1 do
      Uksim.Clock.advance t.clock (guest_tx_cost t.backend);
      bytes := !bytes + Netbuf.len pkts.(i);
      (* Descriptor handoff into the ring: the host side DMAs straight
         from this storage; no serialization copy. *)
      Queue.push pkts.(i) t.tx_ring
    done;
    if n > 0 then begin
      Netdev.count_tx t.counters ~pkts:n ~bytes:!bytes;
      (match t.backend with
      | Vhost_net ->
          (* Notify the host when it may be sleeping (empty->nonempty). *)
          if was_empty then begin
            Uksim.Clock.advance t.clock Uksim.Cost.vm_exit;
            Netdev.count_kick t.counters
          end
      | Vhost_user -> ());
      schedule_drain t
    end;
    n
  in
  let tx_room ~qid =
    check_qid qid;
    catch_up t;
    t.ring_size - Queue.length t.tx_ring
  in
  let rx_burst ~qid ~max =
    check_qid qid;
    Netdev.Rxq.burst t.rxq ~max
  in
  let rx_pending ~qid =
    check_qid qid;
    Netdev.Rxq.pending t.rxq
  in
  {
    Netdev.name;
    mtu = 1500;
    max_queues = 1;
    configure_queue;
    tx_burst;
    tx_room;
    rx_burst;
    rx_pending;
    source = Netdev.source counters;
  }
