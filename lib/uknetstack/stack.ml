module Nb = Uknetdev.Netbuf
module Nd = Uknetdev.Netdev
module C = Uktrace.Metric.Counter

type conf = {
  mac : Addr.Mac.t;
  ip : Addr.Ipv4.t;
  netmask : Addr.Ipv4.t;
  gateway : Addr.Ipv4.t option;
}

(* Per-layer processing costs (cycles), lwIP-calibrated: the full socket
   path costs thousands of cycles per packet. *)
let eth_cost = 45
let ip_cost = 140
let udp_cost = 180
let tcp_demux_cost = 120
let sock_enqueue_cost = 220
let arp_cost = 60

type udp_sock = {
  uport : int;
  urxq : (Addr.Ipv4.t * int * bytes) Queue.t;
  mutable uwaiter : Uksched.Sched.tid option;
  mutable uclosed : bool;
}

type listener = {
  lconn : Tcp.conn;
  backlog : int;
  acceptq : Tcp.conn Queue.t;
  mutable lwaiter : Uksched.Sched.tid option;
  mutable lfast : (Tcp.conn -> unit) option;
      (* fast-accept hook: new connections are handed here (run-to-
         completion setup, e.g. installing an rx sink) instead of being
         queued for a blocking accept. *)
}

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t;
  dev : Nd.t;
  qid : int; (* the device queue this stack owns (multi-queue RSS setups) *)
  cfg : conf;
  pool : Nb.Pool.t;
  rx_batch : int;
  tx_coalesce : bool;
  txq : Nb.t Queue.t; (* frames deferred to the poll-window flush *)
  mutable coalescing : bool; (* inside a poll window right now *)
  arp_table : (int, Addr.Mac.t) Hashtbl.t;
  arp_waiting : (int, (Addr.Mac.t -> unit) list) Hashtbl.t;
  udp_socks : (int, udp_sock) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
  conns : (int * int * int, Tcp.conn) Hashtbl.t; (* local port, remote ip, remote port *)
  mutable conn_of : (Tcp.conn * listener option) list; (* reverse: for accept routing *)
  frag : Frag.t;
  mutable ip_id : int;
  mutable iss : int;
  mutable next_port : int;
  group : Uktrace.Registry.group;
  rx_eth : C.t;
  rx_arp : C.t;
  rx_icmp : C.t;
  rx_udp : C.t;
  rx_tcp : C.t;
  rx_drop : C.t; (* undecodable / no socket / checksum failures *)
  tx_pkts : C.t;
  arp_requests : C.t;
  tcp_retransmits : C.t;
  tcp_fast_retransmits : C.t;
  mutable tcp_io : Tcp.io option;
}

let conf t = t.cfg
let pool t = t.pool
let source t = Uktrace.Registry.source t.group
let charge t c = Uksim.Clock.advance t.clock c
let drop t = C.incr t.rx_drop

(* The pool may be shared between stacks (ablation); always charge this
   stack's own clock for pool traffic. *)
let take_buf t =
  match Nb.Pool.take ~clock:t.clock t.pool with
  | Some nb -> nb
  | None -> Nb.alloc ~size:2048 () (* pool exhausted: fall back to heap *)

let alloc_buf = take_buf

(* --- transmit path ----------------------------------------------------- *)

(* Ownership handoff: the device ring takes the descriptor. Inside a poll
   window frames are coalesced into one burst (one doorbell); outside it —
   timer retransmits, ARP — they go out immediately, which keeps progress
   independent of the poll loop. *)
let tx_frame t nb =
  if t.coalescing then Queue.push nb t.txq
  else begin
    let sent = t.dev.Nd.tx_burst ~qid:t.qid [| nb |] in
    if sent = 1 then C.incr t.tx_pkts else Nb.recycle nb
  end

let flush_tx t =
  if not (Queue.is_empty t.txq) then begin
    let pkts = Array.init (Queue.length t.txq) (fun _ -> Queue.pop t.txq) in
    let sent = t.dev.Nd.tx_burst ~qid:t.qid pkts in
    C.add t.tx_pkts sent;
    for i = sent to Array.length pkts - 1 do
      Nb.recycle pkts.(i)
    done
  end

let send_arp t ~op ~tha ~tpa =
  let nb = take_buf t in
  charge t arp_cost;
  Pkt.Arp.encode { op; sha = t.cfg.mac; spa = t.cfg.ip; tha; tpa } nb;
  Pkt.Eth.encode
    { dst = (if Addr.Mac.is_broadcast tha then Addr.Mac.broadcast else tha);
      src = t.cfg.mac; proto = Pkt.Eth.Arp }
    nb;
  tx_frame t nb

(* Resolve the next-hop MAC for [dst], then call [k mac]. Queues behind an
   ARP request when unresolved; the request is retried (the wire may drop
   it) and parked packets are dropped after the attempts run out. *)
let arp_retries = 5
let arp_retry_cycles = Uksim.Clock.cycles_of_ns 2.0e8 (* 200 ms *)

let rec arp_request t key next_hop attempt =
  if Hashtbl.mem t.arp_waiting key then
    if attempt > arp_retries then begin
      (* Unresolvable: drop whatever was parked (packet loss — the upper
         layers' timers own recovery). *)
      Hashtbl.remove t.arp_waiting key;
      drop t
    end
    else begin
      C.incr t.arp_requests;
      send_arp t ~op:Pkt.Arp.Request ~tha:Addr.Mac.broadcast ~tpa:next_hop;
      Uksim.Engine.after t.engine arp_retry_cycles (fun () ->
          arp_request t key next_hop (attempt + 1))
    end

let resolve t dst k =
  let next_hop =
    if Addr.Ipv4.same_subnet dst t.cfg.ip ~netmask:t.cfg.netmask then dst
    else match t.cfg.gateway with Some gw -> gw | None -> dst
  in
  let key = Addr.Ipv4.to_int next_hop in
  match Hashtbl.find_opt t.arp_table key with
  | Some mac -> k mac
  | None ->
      let pending = match Hashtbl.find_opt t.arp_waiting key with Some l -> l | None -> [] in
      Hashtbl.replace t.arp_waiting key (k :: pending);
      if pending = [] then arp_request t key next_hop 1

let mtu = 1500
let max_ip_payload = mtu - Pkt.Ipv4.size (* 1480, already 8-byte aligned *)

let send_ip_packet t header nb =
  Pkt.Ipv4.encode header nb;
  charge t (Uksim.Cost.checksum Pkt.Ipv4.size);
  resolve t header.Pkt.Ipv4.dst (fun mac ->
      Pkt.Eth.encode { dst = mac; src = t.cfg.mac; proto = Pkt.Eth.Ipv4 } nb;
      charge t eth_cost;
      tx_frame t nb)

let output_ip t ~proto ~dst nb =
  charge t ip_cost;
  t.ip_id <- (t.ip_id + 1) land 0xffff;
  let base =
    { (Pkt.Ipv4.header ~src:t.cfg.ip ~dst ~proto ~payload_len:(Nb.len nb)) with
      Pkt.Ipv4.id = t.ip_id }
  in
  if Nb.len nb <= max_ip_payload then send_ip_packet t base nb
  else begin
    (* Fragment: RFC 791 — 8-byte-aligned offsets, MF on all but the
       tail. Fragmentation is off the fast path: explicit, counted
       copies. *)
    let payload = Nb.copy_out nb in
    Nb.recycle nb;
    let total = Bytes.length payload in
    let rec emit off =
      if off < total then begin
        let len = min max_ip_payload (total - off) in
        let fnb = take_buf t in
        Nb.copy_in fnb (Bytes.sub payload off len);
        charge t (Uksim.Cost.memcpy len);
        send_ip_packet t
          { base with Pkt.Ipv4.payload_len = len; frag_offset = off;
            more_frags = off + len < total }
          fnb;
        emit (off + len)
      end
    in
    emit 0
  end

(* --- TCP glue ----------------------------------------------------------- *)

let conn_key ~lport ~rip ~rport = (lport, Addr.Ipv4.to_int rip, rport)

let tcp_io t : Tcp.io =
  match t.tcp_io with
  | Some io -> io
  | None ->
      let io =
        {
          Tcp.now_cycles = (fun () -> Uksim.Clock.cycles t.clock);
          charge = (fun c -> charge t c);
          tx_segment =
            (fun conn hdr payload ->
              let rip, _ = Tcp.remote_addr conn in
              let nb =
                match payload with
                | Tcp.Tx_netbuf nb ->
                    (* Zero-copy: headers go into this descriptor's
                       headroom; the device DMAs out of the sender's
                       storage. *)
                    nb
                | Tcp.Tx_bytes b ->
                    (* Legacy/control path: materialize into a fresh pool
                       buffer (counted when the payload is non-empty). *)
                    let nb =
                      if Bytes.length b + 128 > 2048 then
                        Nb.alloc ~headroom:64 ~size:(Bytes.length b + 64) ()
                      else take_buf t
                    in
                    Nb.copy_in nb b;
                    nb
              in
              Pkt.Tcp.encode hdr ~src:t.cfg.ip ~dst:rip nb;
              charge t (Uksim.Cost.checksum (Nb.len nb));
              output_ip t ~proto:Pkt.Ipv4.Tcp ~dst:rip nb);
          set_timer =
            (fun conn ~delay_cycles ->
              let timer =
                Uksim.Engine.arm t.engine delay_cycles (fun () -> Tcp.on_timer conn)
              in
              fun () -> Uksim.Engine.cancel t.engine timer);
          wake = (fun tid -> Uksched.Sched.wake t.sched tid);
          retransmitted =
            (fun ~fast -> C.incr (if fast then t.tcp_fast_retransmits else t.tcp_retransmits));
          notify_accept =
            (fun conn ->
              match List.assq_opt conn t.conn_of with
              | Some (Some l) -> (
                  match l.lfast with
                  | Some f -> f conn
                  | None ->
                      if Queue.length l.acceptq < l.backlog then begin
                        Queue.push conn l.acceptq;
                        Option.iter (Uksched.Sched.wake t.sched) l.lwaiter
                      end
                      else Tcp.abort conn)
              | Some None | None -> ());
        }
      in
      t.tcp_io <- Some io;
      io

let next_iss t =
  t.iss <- (t.iss + 64000) land 0xffffffff;
  t.iss

(* --- receive path -------------------------------------------------------

   Every handler below CONSUMES its netbuf: exactly one release (recycle,
   sink handoff, or counted materialization followed by recycle) on every
   path. The descriptor that leaves the driver ring is the same storage the
   application parses. *)

let handle_arp t nb =
  C.incr t.rx_arp;
  charge t arp_cost;
  (match Pkt.Arp.decode nb with
  | Error _ -> drop t
  | Ok a ->
      Hashtbl.replace t.arp_table (Addr.Ipv4.to_int a.spa) a.sha;
      (* Release any frames parked on this resolution. *)
      (match Hashtbl.find_opt t.arp_waiting (Addr.Ipv4.to_int a.spa) with
      | Some ks ->
          Hashtbl.remove t.arp_waiting (Addr.Ipv4.to_int a.spa);
          List.iter (fun k -> k a.sha) (List.rev ks)
      | None -> ());
      if a.op = Pkt.Arp.Request && Addr.Ipv4.equal a.tpa t.cfg.ip then
        send_arp t ~op:Pkt.Arp.Reply ~tha:a.sha ~tpa:a.spa);
  Nb.recycle nb

let handle_icmp t (ip : Pkt.Ipv4.t) nb =
  C.incr t.rx_icmp;
  (match Pkt.Icmp.decode nb with
  | Error _ -> drop t
  | Ok { echo_reply = false; ident; seq } ->
      let reply = take_buf t in
      Nb.copy_in reply (Nb.copy_out nb);
      Pkt.Icmp.encode { echo_reply = true; ident; seq } reply;
      output_ip t ~proto:Pkt.Ipv4.Icmp ~dst:ip.src reply
  | Ok { echo_reply = true; _ } -> ());
  Nb.recycle nb

let handle_udp t (ip : Pkt.Ipv4.t) nb =
  charge t udp_cost;
  (match Pkt.Udp.decode ~src:ip.src ~dst:ip.dst nb with
  | Error _ -> drop t
  | Ok u -> (
      charge t (Uksim.Cost.checksum (Nb.len nb + Pkt.Udp.size));
      match Hashtbl.find_opt t.udp_socks u.dst_port with
      | None -> drop t
      | Some sock ->
          charge t sock_enqueue_cost;
          C.incr t.rx_udp;
          (* Socket API: materialize into the receive queue (counted). *)
          Queue.push (ip.src, u.src_port, Nb.copy_out nb) sock.urxq;
          Option.iter (Uksched.Sched.wake t.sched) sock.uwaiter));
  Nb.recycle nb

let handle_tcp t (ip : Pkt.Ipv4.t) nb =
  charge t tcp_demux_cost;
  charge t (Uksim.Cost.checksum (Nb.len nb));
  match Pkt.Tcp.decode ~src:ip.src ~dst:ip.dst nb with
  | Error _ ->
      drop t;
      Nb.recycle nb
  | Ok h -> (
      C.incr t.rx_tcp;
      let key = conn_key ~lport:h.dst_port ~rip:ip.src ~rport:h.src_port in
      match Hashtbl.find_opt t.conns key with
      | Some conn ->
          Tcp.on_segment_nb conn h nb;
          if Tcp.state conn = Tcp.Closed then begin
            Hashtbl.remove t.conns key;
            t.conn_of <- List.filter (fun (c, _) -> c != conn) t.conn_of
          end
      | None -> (
          match Hashtbl.find_opt t.listeners h.dst_port with
          | Some l when h.syn && not h.ack_flag ->
              let conn =
                Tcp.derive_passive l.lconn ~remote:(ip.src, h.src_port) ~iss:(next_iss t)
                  ~peer_seq:h.seq
              in
              Hashtbl.replace t.conns key conn;
              t.conn_of <- (conn, Some l) :: t.conn_of;
              Nb.recycle nb
          | Some _ | None ->
              (* No socket: RST unless it is itself an RST. *)
              let payload_len = Nb.len nb in
              Nb.recycle nb;
              if not h.rst then begin
                let rnb = take_buf t in
                Nb.set_len rnb 0;
                Pkt.Tcp.encode
                  {
                    Pkt.Tcp.src_port = h.dst_port;
                    dst_port = h.src_port;
                    seq = (if h.ack_flag then h.ack else 0);
                    ack = (h.seq + payload_len + (if h.syn || h.fin then 1 else 0))
                          land 0xffffffff;
                    syn = false;
                    ack_flag = true;
                    fin = false;
                    rst = true;
                    psh = false;
                    window = 0;
                  }
                  ~src:t.cfg.ip ~dst:ip.src rnb;
                output_ip t ~proto:Pkt.Ipv4.Tcp ~dst:ip.src rnb
              end;
              drop t))

let process_frame t nb =
  C.incr t.rx_eth;
  charge t eth_cost;
  match Pkt.Eth.decode nb with
  | Error _ ->
      drop t;
      Nb.recycle nb
  | Ok eth -> (
      match eth.proto with
      | Pkt.Eth.Arp -> handle_arp t nb
      | Pkt.Eth.Ipv4 -> (
          charge t ip_cost;
          match Pkt.Ipv4.decode nb with
          | Error _ ->
              drop t;
              Nb.recycle nb
          | Ok ip ->
              if Addr.Ipv4.equal ip.dst t.cfg.ip || Addr.Ipv4.equal ip.dst Addr.Ipv4.broadcast
              then begin
                charge t (Uksim.Cost.checksum Pkt.Ipv4.size);
                let deliver ip nb =
                  match ip.Pkt.Ipv4.proto with
                  | Pkt.Ipv4.Icmp -> handle_icmp t ip nb
                  | Pkt.Ipv4.Udp -> handle_udp t ip nb
                  | Pkt.Ipv4.Tcp -> handle_tcp t ip nb
                  | Pkt.Ipv4.Unknown _ ->
                      drop t;
                      Nb.recycle nb
                in
                if Pkt.Ipv4.is_fragment ip then begin
                  charge t ip_cost (* reassembly bookkeeping *);
                  let r =
                    Frag.insert t.frag ~src:ip.src ~id:ip.id
                      ~proto:(Pkt.Ipv4.proto_number ip.proto) ~frag_offset:ip.frag_offset
                      ~more_frags:ip.more_frags (Nb.copy_out nb)
                  in
                  Nb.recycle nb;
                  match r with
                  | Frag.Pending -> ()
                  | Frag.Rejected _ -> drop t
                  | Frag.Complete payload ->
                      let rnb = Nb.alloc ~headroom:64 ~size:(Bytes.length payload) () in
                      Nb.copy_in rnb payload;
                      deliver
                        { ip with Pkt.Ipv4.payload_len = Bytes.length payload;
                          more_frags = false; frag_offset = 0 }
                        rnb
                end
                else deliver ip nb
              end
              else begin
                drop t;
                Nb.recycle nb
              end)
      | Pkt.Eth.Unknown _ ->
          drop t;
          Nb.recycle nb)

(* Drain and process pending receive packets and due timers; returns the
   number of packets handled. *)
let poll t =
  Frag.expire t.frag;
  let pkts = t.dev.Nd.rx_burst ~qid:t.qid ~max:t.rx_batch in
  (match pkts with
  | [] -> ()
  | _ ->
      Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~cat:"uknetstack" "rx_burst"
        (fun () ->
          if t.tx_coalesce then t.coalescing <- true;
          List.iter (fun nb -> process_frame t nb) pkts;
          t.coalescing <- false;
          flush_tx t));
  List.length pkts

(* lwIP bring-up: memory pools, pcb tables, timers (~0.35 ms, part of the
   0.49 ms nginx boot floor in Fig 14). *)
let stack_init_cost = 1_250_000

let create ~clock ~engine ~sched ?alloc ~dev ?(qid = 0) ?(rx_batch = 64) ?(rx_copy = false)
    ?(tx_coalesce = false) ?pool cfg =
  Uksim.Clock.advance clock stack_init_cost;
  let pool =
    match pool with
    | Some p -> p
    | None -> Nb.Pool.create ~clock ?alloc ~count:512 ~size:2048 ()
  in
  let group = Uktrace.Registry.group ~subsystem:"uknetstack" "stack" in
  let c = Uktrace.Registry.counter group in
  let rx_eth = c "rx_eth" in
  let rx_arp = c "rx_arp" in
  let rx_icmp = c "rx_icmp" in
  let rx_udp = c "rx_udp" in
  let rx_tcp = c "rx_tcp" in
  let rx_drop = c "rx_drop" in
  let tx_pkts = c "tx_pkts" in
  let arp_requests = c "arp_requests" in
  let tcp_retransmits = c "tcp_retransmits" in
  let tcp_fast_retransmits = c "tcp_fast_retransmits" in
  let t =
    {
      clock;
      engine;
      sched;
      dev;
      qid;
      cfg;
      pool;
      rx_batch = max 1 rx_batch;
      tx_coalesce;
      txq = Queue.create ();
      coalescing = false;
      arp_table = Hashtbl.create 32;
      arp_waiting = Hashtbl.create 8;
      udp_socks = Hashtbl.create 16;
      listeners = Hashtbl.create 8;
      conns = Hashtbl.create 64;
      conn_of = [];
      frag = Frag.create ~clock ();
      ip_id = 0;
      iss = 0x1000;
      next_port = 49152;
      group;
      rx_eth;
      rx_arp;
      rx_icmp;
      rx_udp;
      rx_tcp;
      rx_drop;
      tx_pkts;
      arp_requests;
      tcp_retransmits;
      tcp_fast_retransmits;
      tcp_io = None;
    }
  in
  (* The input service thread. Pinned: the stack charges its home clock,
     so work stealing must not migrate it to another core. *)
  let tid =
    Uksched.Sched.spawn sched ~name:"netstack-input" ~daemon:true ~pinned:true (fun () ->
        let rec loop () =
          if poll t > 0 then Uksched.Sched.yield () else Uksched.Sched.block ();
          loop ()
        in
        loop ())
  in
  (* Interrupt mode: the device wakes the service thread. *)
  dev.Nd.configure_queue ~qid
    { Nd.rx_path =
        (if rx_copy then Nd.Copy_into (fun () -> Nb.Pool.take ~clock pool) else Nd.Zero_copy);
      mode = Nd.Interrupt_driven;
      rx_handler = Some (fun () -> Uksched.Sched.wake sched tid) };
  t

(* --- UDP sockets -------------------------------------------------------- *)

module Udp_socket = struct
  type nonrec stack = t [@@warning "-34"]
  type nonrec t = { stack : stack; sock : udp_sock }

  let bind stack ~port =
    if port <= 0 || port > 0xffff then invalid_arg "Udp_socket.bind: bad port";
    if Hashtbl.mem stack.udp_socks port then invalid_arg "Udp_socket.bind: port in use";
    let sock = { uport = port; urxq = Queue.create (); uwaiter = None; uclosed = false } in
    Hashtbl.replace stack.udp_socks port sock;
    { stack; sock }

  let sendto { stack; sock } ~dst:(dip, dport) payload =
    if sock.uclosed then invalid_arg "Udp_socket.sendto: closed";
    charge stack udp_cost;
    (* Datagrams beyond the pool's buffer size (they will be fragmented
       at the IP layer) get a right-sized heap buffer. *)
    let nb =
      if Bytes.length payload + 128 > 2048 then
        Nb.alloc ~headroom:64 ~size:(Bytes.length payload + 64) ()
      else take_buf stack
    in
    Nb.copy_in nb payload;
    Pkt.Udp.encode { src_port = sock.uport; dst_port = dport } ~src:stack.cfg.ip ~dst:dip nb;
    charge stack (Uksim.Cost.checksum (Nb.len nb));
    output_ip stack ~proto:Pkt.Ipv4.Udp ~dst:dip nb

  let rec recvfrom ?(block = false) ({ stack; sock } as s) =
    match Queue.take_opt sock.urxq with
    | Some dgram ->
        charge stack sock_enqueue_cost;
        Some dgram
    | None ->
        if not block then None
        else begin
          sock.uwaiter <- Some (Uksched.Sched.self ());
          Uksched.Sched.block ();
          sock.uwaiter <- None;
          if sock.uclosed then None else recvfrom ~block s
        end

  let close { stack; sock } =
    sock.uclosed <- true;
    Hashtbl.remove stack.udp_socks sock.uport;
    Option.iter (Uksched.Sched.wake stack.sched) sock.uwaiter
end

(* --- TCP sockets ---------------------------------------------------------- *)

module Tcp_socket = struct
  type nonrec stack = t [@@warning "-34"]
  type nonrec listener = listener
  type flow = Tcp.conn

  let listen stack ~port ?(backlog = 64) () =
    if port <= 0 || port > 0xffff then invalid_arg "Tcp_socket.listen: bad port";
    if Hashtbl.mem stack.listeners port then invalid_arg "Tcp_socket.listen: port in use";
    let lconn = Tcp.create_listen (tcp_io stack) ~local:(stack.cfg.ip, port) in
    let l = { lconn; backlog; acceptq = Queue.create (); lwaiter = None; lfast = None } in
    Hashtbl.replace stack.listeners port l;
    l

  let set_fast_accept l f = l.lfast <- f

  let rec accept ?(block = false) l =
    match Queue.take_opt l.acceptq with
    | Some conn -> Some conn
    | None ->
        if not block then None
        else begin
          l.lwaiter <- Some (Uksched.Sched.self ());
          Uksched.Sched.block ();
          l.lwaiter <- None;
          accept ~block l
        end

  let fresh_port stack ~dst:(dip, dport) =
    (* Sequential ephemeral ports, skipping four-tuples still in use. *)
    let rec pick tries =
      if tries > 16384 then failwith "Tcp_socket.connect: ephemeral ports exhausted";
      let p = stack.next_port in
      stack.next_port <- (if p >= 65535 then 49152 else p + 1);
      if Hashtbl.mem stack.conns (conn_key ~lport:p ~rip:dip ~rport:dport) then pick (tries + 1)
      else p
    in
    pick 0

  let connect stack ?lport ~dst:(dip, dport) () =
    let lport =
      match lport with
      | None -> fresh_port stack ~dst:(dip, dport)
      | Some p ->
          if p <= 0 || p > 0xffff then invalid_arg "Tcp_socket.connect: bad lport";
          if Hashtbl.mem stack.conns (conn_key ~lport:p ~rip:dip ~rport:dport) then
            invalid_arg "Tcp_socket.connect: lport in use for this destination";
          p
    in
    let conn =
      Tcp.create_active (tcp_io stack) ~local:(stack.cfg.ip, lport) ~remote:(dip, dport)
        ~iss:(next_iss stack)
    in
    let key = conn_key ~lport ~rip:dip ~rport:dport in
    Hashtbl.replace stack.conns key conn;
    stack.conn_of <- (conn, None) :: stack.conn_of;
    let rec wait () =
      match Tcp.state conn with
      | Tcp.Established -> ()
      | Tcp.Closed -> failwith "Tcp_socket.connect: connection refused"
      | Tcp.Syn_sent | Tcp.Syn_rcvd ->
          Tcp.set_connect_waiter conn (Some (Uksched.Sched.self ()));
          Uksched.Sched.block ();
          Tcp.set_connect_waiter conn None;
          wait ()
      | Tcp.Listen | Tcp.Fin_wait_1 | Tcp.Fin_wait_2 | Tcp.Close_wait | Tcp.Closing
      | Tcp.Last_ack | Tcp.Time_wait ->
          failwith "Tcp_socket.connect: unexpected state"
    in
    wait ();
    conn

  let rec send ?(block = false) stack flow data =
    let n = Tcp.send flow data in
    charge stack sock_enqueue_cost;
    if (not block) || n = Bytes.length data then n
    else begin
      (* Wait for buffer space, then queue the remainder. *)
      Tcp.set_send_waiter flow (Some (Uksched.Sched.self ()));
      Uksched.Sched.block ();
      Tcp.set_send_waiter flow None;
      let rest = Bytes.sub data n (Bytes.length data - n) in
      n + send ~block stack flow rest
    end

  (* Fast path: hand a filled buffer straight to TCP — no socket-layer
     enqueue cost, no copy. *)
  let send_nb _stack flow nb = Tcp.send_nb flow nb

  let rec recv ?(block = false) stack flow ~max =
    charge stack sock_enqueue_cost;
    match Tcp.recv flow ~max with
    | Some data -> Some data
    | None ->
        if Tcp.recv_eof flow || Tcp.state flow = Tcp.Closed then None
        else if not block then Some Bytes.empty
        else begin
          Tcp.set_recv_waiter flow (Some (Uksched.Sched.self ()));
          Uksched.Sched.block ();
          Tcp.set_recv_waiter flow None;
          recv ~block stack flow ~max
        end

  let close _stack flow = Tcp.close flow
  let state flow = Tcp.state flow
end
