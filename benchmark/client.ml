(* Closed-loop pipelined clients, written against the uknetstack public
   API only: [Tcp_socket] send/recv for the socket workload, and an RX
   sink plus pool netbufs for the fast-path workloads.

   Each connection sends a batch of [pipeline] requests, then waits until
   every reply of the batch has arrived before sending the next batch
   (redis-benchmark's -P). A request's latency runs from the moment its
   batch is written to the moment its own reply completes. Replies are
   checked byte for byte against the reply the rig expects, so a wrong
   byte anywhere counts the request as wrong. *)

module S = Uknetstack.Stack
module Tcp = Uknetstack.Tcp
module Nb = Uknetdev.Netbuf

type transport = Socket | Fast

type request = {
  wire : string;
  expect : string;  (** the exact reply; ['\000'] matches any byte *)
  commit : bool;
  set_bytes : int;  (** SET payload bytes, acknowledged by a correct reply *)
}

let wildcard = '\000'

(* Growable float vector: latency samples for one load. *)
module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let a = Array.sub v.a 0 v.n in
    Array.sort compare a;
    a
end

type tally = {
  lat_ns : Fvec.t;
  commit_lat_ns : Fvec.t;
  mutable attempted : int;
  mutable ok : int;
  mutable wrong : int;
  mutable stray_bytes : int;  (** reply bytes that arrived with no request outstanding *)
  mutable acked_set_bytes : int;
  mutable t_end_ns : float;  (** when the last reply completed *)
}

let new_tally () =
  { lat_ns = Fvec.create (); commit_lat_ns = Fvec.create (); attempted = 0; ok = 0; wrong = 0;
    stray_bytes = 0; acked_set_bytes = 0; t_end_ns = 0.0 }

(* Every attempted request not answered correctly: wrong replies plus the
   ones never answered at all. *)
let failed t = t.attempted - t.ok

type inflight = {
  req : request;
  seq : int;
  sent_ns : float;
  mutable sent_end_ns : float;
  mutable first_ns : float;
}

type conn = {
  core : int;  (** client core index, 0-based among client cores *)
  id : int;
  clock : Uksim.Clock.t;
  tally : tally;
  queue : inflight Queue.t;
  mutable matched : int;  (** bytes of the head reply seen so far *)
  mutable bad : bool;
  spans : Spans.t option;
}

(* Cycles the client core spends producing one request and checking its
   reply; only the client's own headroom depends on them. *)
let socket_client_cost = 150
let fast_client_cost = 60

(* A sampled request gets a span with a send and a reply child. *)
let span_every = 16

let record_span c (f : inflight) done_ns =
  match c.spans with
  | Some sp when f.seq mod span_every = 0 ->
      let id = Printf.sprintf "req:%d:%d:%d" c.core c.id f.seq in
      let tid = 1000 + (100 * c.core) + c.id in
      Spans.add sp ~cat:"client" ~name:"client.request" ~id ~parent:"" ~tid ~start_ns:f.sent_ns
        ~end_ns:done_ns;
      Spans.add sp ~cat:"client" ~name:"client.send" ~id:(id ^ ":send") ~parent:id ~tid
        ~start_ns:f.sent_ns ~end_ns:f.sent_end_ns;
      Spans.add sp ~cat:"client" ~name:"client.reply" ~id:(id ^ ":reply") ~parent:id ~tid
        ~start_ns:f.first_ns ~end_ns:done_ns
  | Some _ | None -> ()

let complete c (f : inflight) =
  let now = Uksim.Clock.ns c.clock in
  let t = c.tally in
  let lat = now -. f.sent_ns in
  Fvec.push t.lat_ns lat;
  if f.req.commit then Fvec.push t.commit_lat_ns lat;
  if c.bad then t.wrong <- t.wrong + 1
  else begin
    t.ok <- t.ok + 1;
    t.acked_set_bytes <- t.acked_set_bytes + f.req.set_bytes
  end;
  if now > t.t_end_ns then t.t_end_ns <- now;
  record_span c f now;
  c.matched <- 0;
  c.bad <- false

(* Compare [buf[i, i+k)] with [e[off, off+k)], honouring wildcards. *)
let matches e off buf i k =
  let ok = ref true and x = ref 0 in
  while !ok && !x < k do
    let ec = String.unsafe_get e (off + !x) in
    if ec <> wildcard && ec <> Bytes.unsafe_get buf (i + !x) then ok := false;
    incr x
  done;
  !ok

(* Consume reply bytes [buf[i, lim)] against the outstanding requests. *)
let rec feed c buf i lim =
  if i < lim then
    match Queue.peek_opt c.queue with
    | None -> c.tally.stray_bytes <- c.tally.stray_bytes + (lim - i)
    | Some f ->
        let e = f.req.expect in
        if c.matched = 0 then f.first_ns <- Uksim.Clock.ns c.clock;
        let k = min (String.length e - c.matched) (lim - i) in
        if not (matches e c.matched buf i k) then c.bad <- true;
        c.matched <- c.matched + k;
        if c.matched = String.length e then complete c (Queue.pop c.queue);
        feed c buf (i + k) lim

(* Source ports such that connection [ci] of client core [j] hashes to
   queue [j], the queue owned by server core [j]. Ports are unique across
   cores because every client stack shares one IP. *)
let steered_ports ~n ~per_core ~client_ip ~server_ip ~dport =
  let buckets = Array.make n [] in
  let filled = ref 0 and p = ref 20000 in
  while !filled < n do
    let q =
      Uknetdev.Rss.queue_of_tuple ~n_queues:n ~proto:6 ~src_ip:client_ip ~src_port:!p
        ~dst_ip:server_ip ~dst_port:dport
    in
    if List.length buckets.(q) < per_core then begin
      buckets.(q) <- !p :: buckets.(q);
      if List.length buckets.(q) = per_core then incr filled
    end;
    incr p;
    if !p > 60000 then invalid_arg "Client.steered_ports: port search exhausted"
  done;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

(* Write [s] as pool netbufs of at most one MSS each. Filling the buffers
   is the request's one materialization, charged as a memcpy. *)
let write_fast clock stack flow s =
  let n = String.length s in
  Uksim.Clock.advance clock (Uksim.Cost.memcpy n);
  let pos = ref 0 in
  while !pos < n do
    let nb = S.alloc_buf stack in
    let k = min (n - !pos) (min Tcp.mss (Nb.capacity nb)) in
    Bytes.blit_string s !pos (Nb.data nb) (Nb.offset nb) k;
    Nb.set_len nb k;
    ignore (S.Tcp_socket.send_nb stack flow nb);
    pos := !pos + k
  done

(* One connection's closed loop: [total] requests from [next], written
   [pipeline] at a time; the next batch goes out once every reply of this
   one has arrived. *)
let conn_loop ~transport ~stack ~sched ~server ~lport ~pipeline ~total ~offset_ns ~next c () =
  Uksched.Sched.sleep_ns offset_ns;
  let flow = S.Tcp_socket.connect stack ~lport ~dst:server () in
  let me = Uksched.Sched.self () in
  if transport = Fast then
    Tcp.set_rx_sink flow
      (Some
         (fun nb ->
           let buf, off, len = Nb.view nb in
           feed c buf off (off + len);
           Nb.recycle nb;
           if Queue.is_empty c.queue then Uksched.Sched.wake sched me));
  let sent = ref 0 and closed = ref false in
  while !sent < total && not !closed do
    let batch = min pipeline (total - !sent) in
    let reqs = List.init batch (fun k -> next (!sent + k)) in
    Uksim.Clock.advance c.clock
      (batch * match transport with Socket -> socket_client_cost | Fast -> fast_client_cost);
    let sent_ns = Uksim.Clock.ns c.clock in
    let pending =
      List.mapi
        (fun k req -> { req; seq = !sent + k; sent_ns; sent_end_ns = sent_ns; first_ns = sent_ns })
        reqs
    in
    List.iter (fun f -> Queue.push f c.queue) pending;
    c.tally.attempted <- c.tally.attempted + batch;
    sent := !sent + batch;
    let wire = String.concat "" (List.map (fun r -> r.wire) reqs) in
    (match transport with
    | Fast -> write_fast c.clock stack flow wire
    | Socket -> ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.unsafe_of_string wire)));
    let sent_end_ns = Uksim.Clock.ns c.clock in
    List.iter (fun f -> f.sent_end_ns <- sent_end_ns) pending;
    while (not (Queue.is_empty c.queue)) && not !closed do
      match transport with
      | Fast -> Uksched.Sched.block ()
      | Socket -> (
          match S.Tcp_socket.recv ~block:true stack flow ~max:65536 with
          | None -> closed := true
          | Some data -> feed c data 0 (Bytes.length data))
    done
  done;
  if transport = Fast then Tcp.set_rx_sink flow None;
  S.Tcp_socket.close stack flow
