(* The transport seam: listen/accept, receive, framing across segment
   boundaries, the worker hop and the reply flush, written once for every
   TCP server in ukapps. Apps supply a framer and a handler. *)

module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp

type transport = Socket | Netbuf of { rtc : bool }

type chan =
  | Sock of {
      stack : S.t;
      flow : S.Tcp_socket.flow;
      out : Buffer.t;
      mutable sending : bool;
      mutable owner : Uksched.Sched.tid option; (* the connection thread *)
    }
  | Nbuf of Nbio.t

(* A deferred reply's place in the stream, and the replies written after
   it, which wait for it. *)
type slot = { mutable reply : string option; behind : Buffer.t }

type sink = { chan : chan; held : slot Queue.t; mutable newest : slot option }

let emit chan s =
  match chan with Sock { out; _ } -> Buffer.add_string out s | Nbuf w -> Nbio.add w s

let write sink s =
  match sink.newest with None -> emit sink.chan s | Some slot -> Buffer.add_string slot.behind s

let sink transport ~clock ~stack flow =
  let chan =
    match transport with
    | Socket -> Sock { stack; flow; out = Buffer.create 1024; sending = false; owner = None }
    | Netbuf _ -> Nbuf (Nbio.writer ~clock ~stack ~flow)
  in
  { chan; held = Queue.create (); newest = None }

let push ~block sink =
  match sink.chan with
  | Sock ({ stack; flow; out; _ } as s) ->
      (* Bytes written during a blocking send wait in [out] and leave
         with the send that follows it. A non-blocking send keeps what
         did not fit and arms the send-space wakeup of the connection
         thread, which then sends it ([socket_conn]). *)
      let rec go () =
        if (not s.sending) && Buffer.length out > 0 then begin
          let data = Buffer.to_bytes out in
          Buffer.clear out;
          s.sending <- block;
          let n = S.Tcp_socket.send ~block stack flow data in
          s.sending <- false;
          if n < Bytes.length data then begin
            let later = Buffer.contents out in
            Buffer.clear out;
            Buffer.add_subbytes out data n (Bytes.length data - n);
            Buffer.add_string out later;
            Tcp.set_send_waiter flow s.owner
          end
          else if block then go ()
        end
      in
      go ()
  | Nbuf w -> Nbio.flush w

let send = push ~block:true
let flush = push ~block:false

let defer sink =
  let slot = { reply = None; behind = Buffer.create 64 } in
  Queue.push slot sink.held;
  sink.newest <- Some slot;
  fun reply ->
    slot.reply <- Some reply;
    let rec release () =
      match Queue.peek_opt sink.held with
      | Some { reply = Some r; behind } ->
          ignore (Queue.pop sink.held);
          emit sink.chan r;
          emit sink.chan (Buffer.contents behind);
          release ()
      | Some { reply = None; _ } | None -> ()
    in
    release ();
    if Queue.is_empty sink.held then sink.newest <- None;
    flush sink

type 'req frame = Frame of 'req * int | Partial | Bad of string

let line buf pos limit =
  let rec go i =
    if i >= limit then Partial
    else if Bytes.get buf i = '\n' then Frame (Bytes.sub_string buf pos (i - pos), i + 1)
    else go (i + 1)
  in
  go pos

(* The most a connection may hold of a request its framer cannot frame
   yet. Past it the connection's replies so far are flushed and it is
   closed, as Redis closes a client past its query-buffer limit. *)
let max_unframed = 65536

(* Per-connection state: the reply sink, and the stash holding the
   unframed tail of the received stream, [stash[0, stashed)]. *)
type conn = { sink : sink; mutable stash : bytes; mutable stashed : int; mutable closed : bool }

let conn sink = { sink; stash = Bytes.empty; stashed = 0; closed = false }

(* Append [b[off, off+len)] to the stash. *)
let append c b off len =
  let need = c.stashed + len in
  if need > Bytes.length c.stash then begin
    let grown = Bytes.create (max need (max 512 (2 * Bytes.length c.stash))) in
    Bytes.blit c.stash 0 grown 0 c.stashed;
    c.stash <- grown
  end;
  Bytes.blit b off c.stash c.stashed len;
  c.stashed <- need

(* Frame and handle every complete request in [buf[off, off+len)]: the
   bytes consumed, or [None] after a framing error (its reply written). *)
let scan ~frame ~handle sink buf off len =
  let limit = off + len in
  let rec go pos =
    match frame buf pos limit with
    | Frame (req, next) ->
        handle sink req;
        go next
    | Partial -> Some (pos - off)
    | Bad reply ->
        write sink reply;
        None
  in
  go off

(* One received chunk, [buf[off, off+len)], on either transport: framed
   in place while nothing is stashed, else appended to the stash and the
   stash framed. [keep pos] stashes the chunk from [pos] on; [release ()]
   runs once the chunk itself is no longer needed. [false] when the
   connection must close: after a framing error (its reply written), or
   when more than [max_unframed] bytes stay unframed. *)
let receive ~frame ~handle c ~keep ~release buf off len =
  let framed =
    if c.stashed = 0 then begin
      let r = scan ~frame ~handle c.sink buf off len in
      (match r with
      | Some consumed when consumed < len -> keep (off + consumed)
      | Some _ | None -> ());
      release ();
      r <> None
    end
    else begin
      keep off;
      release ();
      match scan ~frame ~handle c.sink c.stash 0 c.stashed with
      | None -> false
      | Some consumed ->
          if consumed > 0 then begin
            c.stashed <- c.stashed - consumed;
            Bytes.blit c.stash consumed c.stash 0 c.stashed
          end;
          true
    end
  in
  framed && c.stashed <= max_unframed

(* The connection thread: a blocking receive that also wakes when a
   non-blocking flush left bytes for it to send. *)
let socket_conn ~stack ~frame ~handle c flow =
  let self = Uksched.Sched.self () in
  let unsent =
    match c.sink.chan with
    | Sock s ->
        s.owner <- Some self;
        fun () -> Buffer.length s.out > 0
    | Nbuf _ -> fun () -> false
  in
  let rec serve () =
    match S.Tcp_socket.recv stack flow ~max:16384 with
    | None -> S.Tcp_socket.close stack flow
    | Some data when Bytes.length data = 0 ->
        if unsent () then send c.sink
        else begin
          Tcp.set_recv_waiter flow (Some self);
          Uksched.Sched.block ();
          Tcp.set_recv_waiter flow None;
          Tcp.set_send_waiter flow None
        end;
        serve ()
    | Some data ->
        let len = Bytes.length data in
        let keep pos = append c data pos (len - pos) in
        let ok = receive ~frame ~handle c ~keep ~release:ignore data 0 len in
        send c.sink;
        if ok then serve () else S.Tcp_socket.close stack flow
  in
  serve ()

(* One received netbuf, framed in the driver's ring buffer while no
   request straddles a segment. What is stashed leaves the netbuf by a
   counted copy. *)
let netbuf_data ~stack ~frame ~handle c flow nb =
  if c.closed then Nb.recycle nb
  else begin
    let buf, off, len = Nb.view nb in
    let keep pos =
      Nb.pull nb (pos - off);
      let b = Nb.copy_out nb in
      append c b 0 (Bytes.length b)
    in
    let ok = receive ~frame ~handle c ~keep ~release:(fun () -> Nb.recycle nb) buf off len in
    flush c.sink;
    if not ok then begin
      c.closed <- true;
      S.Tcp_socket.close stack flow
    end
  end

let start transport ~name ~clock ~sched ~stack ~port ~frame ~handle =
  let l = S.Tcp_socket.listen stack ~port () in
  (* Pinned: server threads charge this instance's clock and stack, so
     work stealing must not migrate them to another core. *)
  let spawn suffix f =
    Uksched.Sched.spawn sched ~name:(name ^ suffix) ~daemon:true ~pinned:true f
  in
  match transport with
  | Socket ->
      ignore
        (spawn "-accept" (fun () ->
             let rec loop () =
               (match S.Tcp_socket.accept ~block:true l with
               | Some flow ->
                   let c = conn (sink transport ~clock ~stack flow) in
                   ignore (spawn "-conn" (fun () -> socket_conn ~stack ~frame ~handle c flow))
               | None -> ());
               loop ()
             in
             loop ()))
  | Netbuf { rtc } ->
      let dispatch =
        if rtc then fun job -> job ()
        else begin
          (* Ablation: instead of running to completion inside packet
             processing, hop through a pinned worker thread — the classic
             softirq-to-server handoff the fast path removes. *)
          let q : (unit -> unit) Queue.t = Queue.create () in
          let wtid =
            spawn "-fast-worker" (fun () ->
                let rec loop () =
                  (match Queue.take_opt q with
                  | Some job -> job ()
                  | None -> Uksched.Sched.block ());
                  loop ()
                in
                loop ())
          in
          fun job ->
            Queue.push job q;
            Uksched.Sched.wake sched wtid
        end
      in
      S.Tcp_socket.set_fast_accept l
        (Some
           (fun flow ->
             let c = conn (sink transport ~clock ~stack flow) in
             Tcp.set_rx_sink flow
               (Some (fun nb -> dispatch (fun () -> netbuf_data ~stack ~frame ~handle c flow nb)))))
