(* The transport seam: listen/accept, receive, framing across segment
   boundaries, the worker hop and the reply flush, written once for every
   TCP server in ukapps. Apps supply a framer and a handler. *)

module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp

type transport = Socket | Netbuf of { rtc : bool }

type sink =
  | Sock of { stack : S.t; flow : S.Tcp_socket.flow; out : Buffer.t }
  | Nbuf of Nbio.t

let write sink s =
  match sink with Sock { out; _ } -> Buffer.add_string out s | Nbuf w -> Nbio.add w s

let send ~block = function
  | Sock { stack; flow; out } ->
      if Buffer.length out > 0 then begin
        let data = Buffer.to_bytes out in
        Buffer.clear out;
        ignore (S.Tcp_socket.send ~block stack flow data)
      end
  | Nbuf w -> Nbio.flush w

let flush = send ~block:false

type 'req frame = Frame of 'req * int | Partial | Bad of string

let line buf pos limit =
  let rec go i =
    if i >= limit then Partial
    else if Bytes.get buf i = '\n' then Frame (Bytes.sub_string buf pos (i - pos), i + 1)
    else go (i + 1)
  in
  go pos

(* Per-connection state: the reply sink, and the accumulator holding the
   unframed tail (the socket path's receive buffer; the netbuf path's
   counted-copy stash). *)
type conn = { sink : sink; acc : Buffer.t; mutable closed : bool }

let conn sink = { sink; acc = Buffer.create 512; closed = false }

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

let drain ~frame ~handle c =
  let s = Buffer.contents c.acc in
  match scan ~frame ~handle c.sink (Bytes.unsafe_of_string s) 0 (String.length s) with
  | None -> false
  | Some consumed ->
      if consumed > 0 then begin
        Buffer.clear c.acc;
        Buffer.add_substring c.acc s consumed (String.length s - consumed)
      end;
      true

let socket_conn ~stack ~frame ~handle flow =
  let c = conn (Sock { stack; flow; out = Buffer.create 1024 }) in
  let rec serve () =
    match S.Tcp_socket.recv ~block:true stack flow ~max:16384 with
    | None -> S.Tcp_socket.close stack flow
    | Some data ->
        Buffer.add_bytes c.acc data;
        let ok = drain ~frame ~handle c in
        send ~block:true c.sink;
        if ok then serve () else S.Tcp_socket.close stack flow
  in
  serve ()

(* One received netbuf: framed in place while no request straddles a
   segment; otherwise through the stash until the pipeline realigns. *)
let netbuf_data ~stack ~frame ~handle c flow nb =
  if c.closed then Nb.recycle nb
  else begin
    let ok =
      if Buffer.length c.acc = 0 then begin
        let buf, off, len = Nb.view nb in
        let r = scan ~frame ~handle c.sink buf off len in
        (match r with
        | Some consumed when consumed < len ->
            Nb.pull nb consumed;
            Buffer.add_bytes c.acc (Nb.copy_out nb)
        | Some _ | None -> ());
        Nb.recycle nb;
        r <> None
      end
      else begin
        Buffer.add_bytes c.acc (Nb.copy_out nb);
        Nb.recycle nb;
        drain ~frame ~handle c
      end
    in
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
                   ignore (spawn "-conn" (fun () -> socket_conn ~stack ~frame ~handle flow))
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
             let c = conn (Nbuf (Nbio.writer ~clock ~stack ~flow)) in
             Tcp.set_rx_sink flow
               (Some (fun nb -> dispatch (fun () -> netbuf_data ~stack ~frame ~handle c flow nb)))))
