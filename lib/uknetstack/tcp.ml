module Nb = Uknetdev.Netbuf

type state =
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

let state_to_string = function
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"
  | Closed -> "CLOSED"

let mss = 1460
let default_window = 65535
let sndbuf_max = 65536
let rcvbuf_max = 65536
let rto_base_cycles = Uksim.Clock.cycles_of_ns 2.0e8 (* 200 ms *)
let max_retransmits = 10 (* give-up threshold (RFC 1122's R2) *)
let msl_cycles = Uksim.Clock.cycles_of_ns 1.0e9
let seg_proc_cost = 160 (* state-machine work per segment *)

(* 32-bit sequence arithmetic. *)
let seq_add a n = (a + n) land 0xffffffff
let seq_diff a b = (a - b) land 0xffffffff
let seq_lt a b = seq_diff b a < 0x80000000 && a <> b
let seq_le a b = a = b || seq_lt a b

(* What a queued/in-flight segment carries. [Zc] segments keep a descriptor
   onto the sender's buffer: the first transmission shares it (an indirect
   mbuf under the wire's storage), a retransmission pays an explicit,
   counted copy — loss recovery is the quarantined slow path. *)
type seg_payload = Plain of bytes | Zc of Nb.t

type seg = { sseq : int; pl : seg_payload; plen : int; syn : bool; fin : bool }

(* What goes down to the IP layer per transmitted segment. [Tx_netbuf] is
   consumed by the callee (headers are pushed into its headroom, the
   descriptor rides the TX ring). *)
type tx_payload = Tx_bytes of bytes | Tx_netbuf of Nb.t

type conn = {
  io : io;
  local : Addr.Ipv4.t * int;
  remote : Addr.Ipv4.t * int;
  mutable st : state;
  (* send side *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  sendq : Buffer.t; (* app data not yet segmented (legacy bytes path) *)
  zc_sendq : Nb.t Queue.t; (* whole-buffer sends awaiting window room *)
  mutable inflight : seg list; (* oldest first *)
  mutable fin_queued : bool;
  mutable fin_seq : int option;
  (* receive side *)
  mutable rcv_nxt : int;
  recvq : bytes Queue.t;
  mutable recvq_head_off : int;
  mutable recvq_bytes : int;
  mutable fin_received : bool;
  mutable rx_sink : (Nb.t -> unit) option; (* fast path: in-order data handler *)
  (* timers / loss recovery *)
  mutable timer_deadline : int option;
  mutable cancel_timer : unit -> unit; (* unschedules the pending timer event *)
  mutable backoff : int;
  mutable attempts : int; (* consecutive RTOs without progress *)
  mutable dupacks : int;
  mutable retransmits : int;
  mutable fast_retransmits : int;
  (* blocked application threads *)
  mutable recv_waiter : Uksched.Sched.tid option;
  mutable send_waiter : Uksched.Sched.tid option;
  mutable connect_waiter : Uksched.Sched.tid option;
}

and io = {
  now_cycles : unit -> int;
  charge : int -> unit;
  tx_segment : conn -> Pkt.Tcp.t -> tx_payload -> unit;
  set_timer : conn -> delay_cycles:int -> unit -> unit;
  timer_closed : conn -> unit; (* [on_timer] has just closed it *)
  wake : Uksched.Sched.tid -> unit;
  retransmitted : fast:bool -> unit;
  notify_accept : conn -> unit;
}

let state c = c.st
let local_addr c = c.local
let remote_addr c = c.remote
let set_recv_waiter c w = c.recv_waiter <- w
let set_send_waiter c w = c.send_waiter <- w
let set_connect_waiter c w = c.connect_waiter <- w
let set_rx_sink c f = c.rx_sink <- f

let wake_opt c wref =
  match wref with
  | Some tid -> c.io.wake tid
  | None -> ()

let rcv_window c = max 0 (rcvbuf_max - c.recvq_bytes)

(* Release the buffer a segment holds (if any) — acknowledged, aborted, or
   given-up segments must hand their storage back to the driver pool. *)
let drop_seg s = match s.pl with Zc nb -> Nb.recycle nb | Plain _ -> ()

let drop_inflight c =
  List.iter drop_seg c.inflight;
  c.inflight <- []

let drop_pending c =
  drop_inflight c;
  while not (Queue.is_empty c.zc_sendq) do
    Nb.recycle (Queue.pop c.zc_sendq)
  done

let header c ~syn ~ack_flag ~fin ~rst ~psh ~seq =
  {
    Pkt.Tcp.src_port = snd c.local;
    dst_port = snd c.remote;
    seq;
    ack = c.rcv_nxt;
    syn;
    ack_flag;
    fin;
    rst;
    psh;
    window = min (rcv_window c) 0xffff;
  }

let tx c ?(syn = false) ?(ack_flag = true) ?(fin = false) ?(rst = false) ?(psh = false) ~seq
    payload =
  c.io.tx_segment c (header c ~syn ~ack_flag ~fin ~rst ~psh ~seq) payload

let send_ack c = tx c ~seq:c.snd_nxt (Tx_bytes Bytes.empty)

let no_timer () = ()

(* A connection keeps at most one timer event scheduled: re-arming
   cancels the previous one, so an ACK-paced flow does not leave one
   stale event per ACK queued until its deadline. *)
let arm_timer c delay =
  c.cancel_timer ();
  c.timer_deadline <- Some (c.io.now_cycles () + delay);
  c.cancel_timer <- c.io.set_timer c ~delay_cycles:delay

let disarm_timer c =
  c.timer_deadline <- None;
  c.cancel_timer ();
  c.cancel_timer <- no_timer

let make io ~local ~remote ~st =
  {
    io;
    local;
    remote;
    st;
    snd_una = 0;
    snd_nxt = 0;
    snd_wnd = default_window;
    sendq = Buffer.create 1024;
    zc_sendq = Queue.create ();
    inflight = [];
    fin_queued = false;
    fin_seq = None;
    rcv_nxt = 0;
    recvq = Queue.create ();
    recvq_head_off = 0;
    recvq_bytes = 0;
    fin_received = false;
    rx_sink = None;
    timer_deadline = None;
    cancel_timer = no_timer;
    backoff = 1;
    attempts = 0;
    dupacks = 0;
    retransmits = 0;
    fast_retransmits = 0;
    recv_waiter = None;
    send_waiter = None;
    connect_waiter = None;
  }

let create_listen io ~local = make io ~local ~remote:(Addr.Ipv4.any, 0) ~st:Listen

let transmit_seg ?(rexmit = false) c (s : seg) =
  let payload =
    match s.pl with
    | Plain b -> Tx_bytes b
    | Zc nb ->
        (* First transmission: share the descriptor — the wire DMAs out of
           the sender's storage. Retransmission: the original share may
           still sit in a rx ring somewhere; duplicate onto fresh storage
           (explicit, counted — the quarantined copy). *)
        if rexmit then Tx_netbuf (Nb.copy nb) else Tx_netbuf (Nb.share nb)
  in
  tx c ~syn:s.syn ~ack_flag:(not s.syn || c.st <> Syn_sent) ~fin:s.fin ~psh:(s.plen > 0)
    ~seq:s.sseq payload

(* Push queued application data (bytes first, then whole-buffer zero-copy
   sends, then a queued FIN) into segments as far as the peer's advertised
   window allows. *)
let rec pump c =
  let in_flight = seq_diff c.snd_nxt c.snd_una in
  let window_room = c.snd_wnd - in_flight in
  if Buffer.length c.sendq > 0 && window_room > 0 then begin
    let n = min (min mss (Buffer.length c.sendq)) window_room in
    let payload = Bytes.of_string (String.sub (Buffer.contents c.sendq) 0 n) in
    let rest = String.sub (Buffer.contents c.sendq) n (Buffer.length c.sendq - n) in
    Buffer.clear c.sendq;
    Buffer.add_string c.sendq rest;
    let s = { sseq = c.snd_nxt; pl = Plain payload; plen = n; syn = false; fin = false } in
    c.snd_nxt <- seq_add c.snd_nxt n;
    c.inflight <- c.inflight @ [ s ];
    transmit_seg c s;
    if c.timer_deadline = None then arm_timer c (rto_base_cycles * c.backoff);
    pump c
  end
  else if
    Buffer.length c.sendq = 0
    && (not (Queue.is_empty c.zc_sendq))
    && window_room >= Nb.len (Queue.peek c.zc_sendq)
  then begin
    let nb = Queue.pop c.zc_sendq in
    let n = Nb.len nb in
    let s = { sseq = c.snd_nxt; pl = Zc nb; plen = n; syn = false; fin = false } in
    c.snd_nxt <- seq_add c.snd_nxt n;
    c.inflight <- c.inflight @ [ s ];
    transmit_seg c s;
    if c.timer_deadline = None then arm_timer c (rto_base_cycles * c.backoff);
    pump c
  end
  else if
    Buffer.length c.sendq = 0
    && Queue.is_empty c.zc_sendq
    && c.fin_queued && c.fin_seq = None
    && (c.st = Fin_wait_1 || c.st = Last_ack || c.st = Closing)
  then begin
    let s = { sseq = c.snd_nxt; pl = Plain Bytes.empty; plen = 0; syn = false; fin = true } in
    c.fin_seq <- Some c.snd_nxt;
    c.snd_nxt <- seq_add c.snd_nxt 1;
    c.inflight <- c.inflight @ [ s ];
    transmit_seg c s;
    if c.timer_deadline = None then arm_timer c (rto_base_cycles * c.backoff)
  end

let send_syn c =
  let s = { sseq = c.snd_nxt; pl = Plain Bytes.empty; plen = 0; syn = true; fin = false } in
  c.snd_nxt <- seq_add c.snd_nxt 1;
  c.inflight <- [ s ];
  (* SYN and SYN+ACK forms differ: in SYN_SENT no ack flag. *)
  (match c.st with
  | Syn_sent -> tx c ~syn:true ~ack_flag:false ~seq:s.sseq (Tx_bytes Bytes.empty)
  | Syn_rcvd | Listen | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
  | Time_wait | Closed ->
      tx c ~syn:true ~seq:s.sseq (Tx_bytes Bytes.empty));
  arm_timer c (rto_base_cycles * c.backoff)

let create_active io ~local ~remote ~iss =
  let c = make io ~local ~remote ~st:Syn_sent in
  c.snd_una <- iss;
  c.snd_nxt <- iss;
  send_syn c;
  c

let derive_passive listener ~remote ~iss ~peer_seq =
  let c = make listener.io ~local:listener.local ~remote ~st:Syn_rcvd in
  c.snd_una <- iss;
  c.snd_nxt <- iss;
  c.rcv_nxt <- seq_add peer_seq 1;
  send_syn c;
  c

(* --- ACK processing -------------------------------------------------- *)

(* [bare]: the segment carries no data, has SYN and FIN clear and leaves
   the advertised window as it was, so an ACK of [snd_una] is a
   duplicate in RFC 5681 §2's sense. A data segment that repeats the ACK
   (the peer pipelining its own sends) counts for nothing. *)
let handle_ack c (h : Pkt.Tcp.t) ~bare =
  if not h.ack_flag then ()
  else if seq_lt c.snd_una h.ack && seq_le h.ack c.snd_nxt then begin
    c.snd_una <- h.ack;
    c.dupacks <- 0;
    c.backoff <- 1;
    c.attempts <- 0;
    let keep, acked =
      List.partition
        (fun s ->
          let seg_end = seq_add s.sseq (s.plen + if s.syn || s.fin then 1 else 0) in
          seq_lt h.ack seg_end)
        c.inflight
    in
    List.iter drop_seg acked;
    c.inflight <- keep;
    if c.inflight = [] then disarm_timer c else arm_timer c rto_base_cycles;
    wake_opt c c.send_waiter;
    (* Our FIN acknowledged? *)
    match c.fin_seq with
    | Some fseq when seq_lt fseq h.ack -> (
        match c.st with
        | Fin_wait_1 -> c.st <- Fin_wait_2
        | Closing ->
            c.st <- Time_wait;
            arm_timer c (2 * msl_cycles)
        | Last_ack ->
            c.st <- Closed;
            disarm_timer c;
            wake_opt c c.recv_waiter
        | Listen | Syn_sent | Syn_rcvd | Established | Fin_wait_2 | Close_wait | Time_wait
        | Closed ->
            ())
    | Some _ | None -> ()
  end
  else if bare && h.ack = c.snd_una && c.inflight <> [] then begin
    c.dupacks <- c.dupacks + 1;
    if c.dupacks = 3 then begin
      (* Fast retransmit of the oldest outstanding segment. *)
      c.dupacks <- 0;
      c.fast_retransmits <- c.fast_retransmits + 1;
      c.io.retransmitted ~fast:true;
      match c.inflight with
      | s :: _ -> transmit_seg ~rexmit:true c s
      | [] -> ()
    end
  end

(* --- receive-side data ------------------------------------------------ *)

let deliver_data c payload =
  Queue.push payload c.recvq;
  c.recvq_bytes <- c.recvq_bytes + Bytes.length payload;
  wake_opt c c.recv_waiter

(* Consumes [nb]. In-order data either runs the connection's rx sink in
   place (fast path: the handler parses the payload window and usually
   answers inside the same call — in which case its data segment already
   carried our ACK and the pure ACK is suppressed), or is materialized into
   the socket receive queue (legacy path — an explicit, counted copy). *)
let handle_data_nb c (h : Pkt.Tcp.t) nb =
  let len = Nb.len nb in
  if len = 0 then Nb.recycle nb
  else if h.seq = c.rcv_nxt && len <= rcv_window c then begin
    c.rcv_nxt <- seq_add c.rcv_nxt len;
    match c.rx_sink with
    | Some sink when c.st = Established ->
        let snd_nxt_before = c.snd_nxt in
        sink nb;
        if c.snd_nxt = snd_nxt_before then send_ack c
    | Some _ | None ->
        deliver_data c (Nb.copy_out nb);
        Nb.recycle nb;
        send_ack c
  end
  else begin
    (* Out of order, retransmitted overlap, or no buffer space: drop and
       re-advertise our expectation (duplicate ACK). *)
    Nb.recycle nb;
    send_ack c
  end

let handle_fin c (h : Pkt.Tcp.t) payload_len =
  if h.fin then begin
    let fin_seq = seq_add h.seq payload_len in
    if fin_seq = c.rcv_nxt then begin
      c.rcv_nxt <- seq_add c.rcv_nxt 1;
      c.fin_received <- true;
      (match c.st with
      | Established -> c.st <- Close_wait
      | Fin_wait_1 ->
          (* Our FIN not yet acked: simultaneous close. *)
          c.st <- Closing
      | Fin_wait_2 ->
          c.st <- Time_wait;
          arm_timer c (2 * msl_cycles)
      | Listen | Syn_sent | Syn_rcvd | Close_wait | Closing | Last_ack | Time_wait | Closed -> ());
      send_ack c;
      wake_opt c c.recv_waiter
    end
    else send_ack c
  end

(* Consumes [nb] (exactly one release on every path). *)
let on_segment_nb c (h : Pkt.Tcp.t) nb =
  c.io.charge seg_proc_cost;
  let plen = Nb.len nb in
  if h.rst then begin
    Nb.recycle nb;
    c.st <- Closed;
    drop_pending c;
    disarm_timer c;
    wake_opt c c.recv_waiter;
    wake_opt c c.send_waiter;
    wake_opt c c.connect_waiter
  end
  else begin
    let bare = plen = 0 && (not h.syn) && (not h.fin) && h.window = c.snd_wnd in
    c.snd_wnd <- h.window;
    match c.st with
    | Syn_sent ->
        if h.syn && h.ack_flag && h.ack = c.snd_nxt then begin
          c.snd_una <- h.ack;
          c.rcv_nxt <- seq_add h.seq 1;
          drop_inflight c;
          disarm_timer c;
          c.st <- Established;
          send_ack c;
          wake_opt c c.connect_waiter
        end;
        Nb.recycle nb
    | Syn_rcvd ->
        if h.ack_flag && h.ack = c.snd_nxt then begin
          c.snd_una <- h.ack;
          drop_inflight c;
          disarm_timer c;
          c.st <- Established;
          c.io.notify_accept c;
          handle_data_nb c h nb;
          handle_fin c h plen
        end
        else Nb.recycle nb
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack | Time_wait ->
        handle_ack c h ~bare;
        (match c.st with
        | Established | Fin_wait_1 | Fin_wait_2 -> handle_data_nb c h nb
        | Listen | Syn_sent | Syn_rcvd | Close_wait | Closing | Last_ack | Time_wait | Closed ->
            Nb.recycle nb);
        handle_fin c h plen;
        pump c
    | Listen | Closed -> Nb.recycle nb
  end

let on_timer c =
  let due =
    match c.timer_deadline with
    | Some d -> c.io.now_cycles () >= d
    | None -> false
  in
  if due then begin
    disarm_timer c;
    match c.st with
    | Time_wait ->
        c.st <- Closed;
        wake_opt c c.recv_waiter;
        c.io.timer_closed c
    | Listen | Closed -> ()
    | Syn_sent | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack -> (
        match c.inflight with
        | [] -> ()
        | s :: _ ->
            c.attempts <- c.attempts + 1;
            if c.attempts > max_retransmits then begin
              (* Peer unreachable: give up, as real TCP does after ~R2
                 retries (RFC 1122). *)
              c.st <- Closed;
              drop_pending c;
              wake_opt c c.recv_waiter;
              wake_opt c c.send_waiter;
              wake_opt c c.connect_waiter;
              c.io.timer_closed c
            end
            else begin
              c.retransmits <- c.retransmits + 1;
              c.io.retransmitted ~fast:false;
              c.backoff <- min 64 (c.backoff * 2);
              transmit_seg ~rexmit:true c s;
              arm_timer c (rto_base_cycles * c.backoff)
            end)
  end

(* --- application interface -------------------------------------------- *)

let send_buffer_space c = max 0 (sndbuf_max - Buffer.length c.sendq)

let send c data =
  match c.st with
  | Established | Close_wait ->
      let n = min (Bytes.length data) (send_buffer_space c) in
      Buffer.add_subbytes c.sendq data 0 n;
      pump c;
      n
  | Listen | Syn_sent | Syn_rcvd | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait
  | Closed ->
      0

(* Zero-copy send: the connection takes ownership of [nb] and transmits it
   as one segment when the window allows. Buffers larger than one MSS fall
   back to the byte path (counted copy) — the fast path's callers size
   their replies under the MSS. *)
let send_nb c nb =
  match c.st with
  | Established | Close_wait ->
      let n = Nb.len nb in
      if n > mss then begin
        let data = Nb.copy_out nb in
        Nb.recycle nb;
        send c data
      end
      else begin
        Queue.push nb c.zc_sendq;
        pump c;
        n
      end
  | Listen | Syn_sent | Syn_rcvd | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait
  | Closed ->
      Nb.recycle nb;
      0

let recv_available c = c.recvq_bytes
let recv_eof c = c.fin_received && c.recvq_bytes = 0

let recv c ~max:max_bytes =
  if max_bytes <= 0 then invalid_arg "Tcp.recv: max must be positive";
  if c.recvq_bytes = 0 then None
  else begin
    let window_was_closed = rcv_window c < mss in
    let out = Buffer.create (min max_bytes c.recvq_bytes) in
    let remaining = ref max_bytes in
    let continue = ref true in
    while !continue && !remaining > 0 do
      match Queue.peek_opt c.recvq with
      | None -> continue := false
      | Some chunk ->
          let avail = Bytes.length chunk - c.recvq_head_off in
          let take = min avail !remaining in
          Buffer.add_subbytes out chunk c.recvq_head_off take;
          remaining := !remaining - take;
          c.recvq_bytes <- c.recvq_bytes - take;
          if take = avail then begin
            ignore (Queue.pop c.recvq);
            c.recvq_head_off <- 0
          end
          else c.recvq_head_off <- c.recvq_head_off + take
    done;
    (* Window update: tell a stalled peer that buffer space reopened. *)
    if window_was_closed && rcv_window c >= mss && c.st <> Closed then send_ack c;
    Some (Buffer.to_bytes out)
  end

let close c =
  match c.st with
  | Established ->
      c.st <- Fin_wait_1;
      c.fin_queued <- true;
      pump c
  | Close_wait ->
      c.st <- Last_ack;
      c.fin_queued <- true;
      pump c
  | Syn_sent | Syn_rcvd | Listen ->
      c.st <- Closed;
      drop_pending c;
      disarm_timer c
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed -> ()

let abort c =
  (match c.st with
  | Closed | Listen -> ()
  | Syn_sent | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack | Time_wait ->
      tx c ~rst:true ~seq:c.snd_nxt (Tx_bytes Bytes.empty));
  c.st <- Closed;
  drop_pending c;
  disarm_timer c;
  wake_opt c c.recv_waiter;
  wake_opt c c.send_waiter;
  wake_opt c c.connect_waiter

(* --- equivalence digest ----------------------------------------------- *)

let int_of_state = function
  | Listen -> 0
  | Syn_sent -> 1
  | Syn_rcvd -> 2
  | Established -> 3
  | Fin_wait_1 -> 4
  | Fin_wait_2 -> 5
  | Close_wait -> 6
  | Closing -> 7
  | Last_ack -> 8
  | Time_wait -> 9
  | Closed -> 10

(* FNV-1a over the protocol-visible connection state — the zero-copy and
   copy datapaths must agree on this after processing the same traffic. *)
let state_hash c =
  let h = ref 0x2545f4914f6cdd1d in
  let mix v = h := (!h lxor (v land 0xffffffff)) * 0x100000001b3 in
  mix (int_of_state c.st);
  mix c.snd_una;
  mix c.snd_nxt;
  mix c.rcv_nxt;
  mix c.recvq_bytes;
  mix c.retransmits;
  mix c.fast_retransmits;
  mix (if c.fin_received then 1 else 0);
  mix (if c.fin_queued then 1 else 0);
  !h land max_int
