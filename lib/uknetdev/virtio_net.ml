type backend = Vhost_net | Vhost_user

(* Guest-side per-packet descriptor work. vhost-user avoids the
   notification bookkeeping of the split ring. *)
let guest_tx_cost = function Vhost_net -> 115 | Vhost_user -> 92
let guest_rx_cost = 88

(* Host-side per-packet path: tap + kernel bridge vs. DPDK poll-mode. *)
let host_pkt_cost = function Vhost_net -> 2900 | Vhost_user -> 250
let host_batch = 64
let vhost_user_poll_cycles = 1200 (* ~0.33us poll interval when idle *)

type txq = { tx_ring : Netbuf.t Queue.t; mutable drain_scheduled : bool }

type state = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  backend : backend;
  wire : Wire.endpoint;
  ring_size : int;
  rxqs : Netdev.Rxq.t array;
  txqs : txq array;
  counters : Netdev.counters;
}

let catch_up t = Uksim.Engine.run ~until:(Uksim.Clock.cycles t.clock) t.engine

(* Host drain loop for one tx queue: processes packets in batches at host
   speed, forwarding each onto the wire. Runs on the engine (host core). *)
let rec schedule_drain t q =
  if not q.drain_scheduled then begin
    q.drain_scheduled <- true;
    let delay =
      match t.backend with
      | Vhost_net -> host_pkt_cost Vhost_net (* wakes after kick, first pkt cost *)
      | Vhost_user -> vhost_user_poll_cycles
    in
    Uksim.Engine.after t.engine delay (fun () -> drain t q)
  end

and drain t q =
  q.drain_scheduled <- false;
  if not (Queue.is_empty q.tx_ring) then begin
    let n = min host_batch (Queue.length q.tx_ring) in
    for _ = 1 to n do
      Wire.send t.wire (Queue.pop q.tx_ring)
    done;
    (* The batch took host time; continue draining afterwards. *)
    q.drain_scheduled <- true;
    Uksim.Engine.after t.engine (n * host_pkt_cost t.backend) (fun () -> drain t q)
  end
  (* Ring empty: the next tx_burst re-arms the drain (for vhost-user one
     poll interval out — the poller's pickup latency — so the event queue
     stays finite in simulation). *)

let create ~clock ~engine ~backend ~wire ?(ring_size = 256) ?(n_queues = 1) () =
  if ring_size <= 0 || n_queues <= 0 then invalid_arg "Virtio_net.create";
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
      rxqs =
        Array.init n_queues (fun _ ->
            Netdev.Rxq.create counters ~clock ~engine ~ring_size ~pkt_cost:guest_rx_cost);
      txqs = Array.init n_queues (fun _ -> { tx_ring = Queue.create (); drain_scheduled = false });
      counters;
    }
  in
  (* Inbound steering: with one queue everything lands on queue 0; with
     several, RSS hashes the 5-tuple (frames without one — ARP, non-IP —
     take queue 0, the device's default queue). *)
  Wire.set_receiver wire
    (Some
       (fun nb ->
         let qid =
           if n_queues = 1 then 0
           else match Rss.queue_of_netbuf nb ~n_queues with Some q -> q | None -> 0
         in
         Netdev.Rxq.deliver t.rxqs.(qid) nb));
  let check_qid qid =
    if qid < 0 || qid >= n_queues then invalid_arg "Virtio_net: bad queue id"
  in
  let configure_queue ~qid conf =
    check_qid qid;
    Netdev.Rxq.configure t.rxqs.(qid) conf
  in
  let tx_burst ~qid (pkts : Netbuf.t array) =
    check_qid qid;
    catch_up t;
    let q = t.txqs.(qid) in
    let was_empty = Queue.is_empty q.tx_ring in
    let room = t.ring_size - Queue.length q.tx_ring in
    let n = min room (Array.length pkts) in
    let bytes = ref 0 in
    for i = 0 to n - 1 do
      Uksim.Clock.advance t.clock (guest_tx_cost t.backend);
      bytes := !bytes + Netbuf.len pkts.(i);
      (* Descriptor handoff into the ring: the host side DMAs straight
         from this storage; no serialization copy. *)
      Queue.push pkts.(i) q.tx_ring
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
      schedule_drain t q
    end;
    n
  in
  let tx_room ~qid =
    check_qid qid;
    catch_up t;
    t.ring_size - Queue.length t.txqs.(qid).tx_ring
  in
  let rx_burst ~qid ~max =
    check_qid qid;
    Netdev.Rxq.burst t.rxqs.(qid) ~max
  in
  let rx_pending ~qid =
    check_qid qid;
    Netdev.Rxq.pending t.rxqs.(qid)
  in
  {
    Netdev.name;
    mtu = 1500;
    max_queues = n_queues;
    configure_queue;
    tx_burst;
    tx_room;
    rx_burst;
    rx_pending;
    source = Netdev.source counters;
  }
