type queue = { q_clock : Uksim.Clock.t; q_engine : Uksim.Engine.t; rx : Netdev.Rxq.t }

type side = {
  name : string;
  latency : int;
  queues : queue array;
  counters : Netdev.counters;
  mutable peer : side option;
}

let tx_cost = 40
let rx_cost = 35

(* Doorbell per tx_burst invocation (MMIO write waking the peer side) —
   the cost TX coalescing amortizes across a batch. *)
let kick_cost = 250

let dev_of_side s =
  let name = s.name in
  let n_queues = Array.length s.queues in
  let check_qid qid =
    if qid < 0 || qid >= n_queues then invalid_arg (Printf.sprintf "%s: bad qid %d" name qid)
  in
  let catch_up q = Uksim.Engine.run ~until:(Uksim.Clock.cycles q.q_clock) q.q_engine in
  {
    Netdev.name;
    mtu = 1500;
    max_queues = n_queues;
    configure_queue =
      (fun ~qid conf ->
        check_qid qid;
        Netdev.Rxq.configure s.queues.(qid).rx conf);
    tx_burst =
      (fun ~qid pkts ->
        check_qid qid;
        let q = s.queues.(qid) in
        catch_up q;
        let peer = match s.peer with Some p -> p | None -> assert false in
        let peer_n = Array.length peer.queues in
        let n = Array.length pkts in
        let bytes = ref 0 in
        Array.iter
          (fun nb ->
            Uksim.Clock.advance q.q_clock tx_cost;
            bytes := !bytes + Netbuf.len nb;
            (* Each peer queue may live on its own core clock: deliver on
               that queue's engine, no earlier than its local present. The
               descriptor itself crosses — DMA handoff, no copy. *)
            let deliver_to tq nb =
              let pq = peer.queues.(tq) in
              let at =
                max (Uksim.Clock.cycles pq.q_clock) (Uksim.Clock.cycles q.q_clock + s.latency)
              in
              Uksim.Engine.at pq.q_engine at (fun () -> Netdev.Rxq.deliver pq.rx nb)
            in
            match Rss.queue_of_netbuf nb ~n_queues:peer_n with
            | Some tq -> deliver_to tq nb
            | None when peer_n = 1 -> deliver_to 0 nb
            | None ->
                (* No 5-tuple (ARP, non-IP): mirror to every queue so each
                   per-queue stack can resolve/answer it — like NIC
                   broadcast replication across RSS contexts. The mirrors
                   share storage; nothing is copied. *)
                for tq = 0 to peer_n - 1 do
                  deliver_to tq (Netbuf.share nb)
                done;
                Netbuf.recycle nb)
          pkts;
        if n > 0 then begin
          Uksim.Clock.advance q.q_clock kick_cost;
          Netdev.count_tx s.counters ~pkts:n ~bytes:!bytes;
          Netdev.count_kick s.counters
        end;
        n);
    tx_room =
      (fun ~qid ->
        check_qid qid;
        max_int);
    rx_burst =
      (fun ~qid ~max ->
        check_qid qid;
        Netdev.Rxq.burst s.queues.(qid).rx ~max);
    rx_pending =
      (fun ~qid ->
        check_qid qid;
        Netdev.Rxq.pending s.queues.(qid).rx);
    source = Netdev.source s.counters;
  }

let create_pair ~clock ~engine ?(latency_ns = 2000.0) ?(ring_size = 512) ?(n_queues = 1)
    ?queues_a ?queues_b () =
  if n_queues <= 0 then invalid_arg "Loopback.create_pair: n_queues must be positive";
  let mk_side name qs =
    let counters = Netdev.counters name in
    let queues =
      Array.map
        (fun (q_clock, q_engine) ->
          { q_clock; q_engine;
            rx = Netdev.Rxq.create counters ~clock:q_clock ~engine:q_engine ~ring_size
                   ~pkt_cost:rx_cost })
        qs
    in
    { name; latency = Uksim.Clock.cycles_of_ns latency_ns; queues; counters; peer = None }
  in
  let queue_pairs = function
    | Some qs when Array.length qs > 0 -> qs
    | Some _ -> invalid_arg "Loopback.create_pair: empty queue array"
    | None -> Array.make n_queues (clock, engine)
  in
  let a = mk_side "loopback-a" (queue_pairs queues_a) in
  let b = mk_side "loopback-b" (queue_pairs queues_b) in
  a.peer <- Some b;
  b.peer <- Some a;
  (dev_of_side a, dev_of_side b)
