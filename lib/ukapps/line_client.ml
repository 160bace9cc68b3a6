(* Closed-loop load generator for the newline-request, fixed-size-reply
   protocols (Store, Infer). Fixed-size replies make the reply counter
   pure byte arithmetic, immune to how TCP segments the stream. *)

module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp

let cmd_cost = 120
let fast_cmd_cost = 40

type proto = { name : string; reply_len : int; requests : int -> int -> string }

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  errors : int;
}

type agg = {
  lat : Uksim.Stats.t; (* per-request latency, ns *)
  mutable a_requests : int;
  mutable a_errors : int;
  mutable t_end : float;
}

let new_agg () = { lat = Uksim.Stats.create (); a_requests = 0; a_errors = 0; t_end = 0.0 }

let spawn ~transport ~clock ~sched ~stack ~server ?(connections = 16) ?(pipeline = 1)
    ?(requests = 4096) ?(port_for = fun _ -> None) ~agg (proto : proto) =
  let per_conn = max 1 (requests / connections) in
  agg.a_requests <- agg.a_requests + (per_conn * connections);
  let fast = transport <> Serve.Socket in
  let cost = if fast then fast_cmd_cost else cmd_cost in
  let client_thread ci () =
    let next = proto.requests ci in
    let flow = S.Tcp_socket.connect stack ?lport:(port_for ci) ~dst:server () in
    let recvd = ref 0 (* reply-stream bytes *) in
    (* Count the replies in [buf[off, off+len)]: an 'E' status byte at a
       reply boundary is an error. *)
    let count buf off len =
      for i = off to off + len - 1 do
        if !recvd mod proto.reply_len = 0 && Bytes.get buf i = 'E' then
          agg.a_errors <- agg.a_errors + 1;
        incr recvd
      done
    in
    if fast then begin
      let me = Uksched.Sched.self () in
      Tcp.set_rx_sink flow
        (Some
           (fun nb ->
             let buf, off, len = Nb.view nb in
             count buf off len;
             Nb.recycle nb;
             Uksched.Sched.wake sched me))
    end;
    let sent = ref 0 in
    while !sent < per_conn do
      let batch = min pipeline (per_conn - !sent) in
      let w = Nbio.writer ~clock ~stack ~flow and buf = Buffer.create (batch * 24) in
      for k = 0 to batch - 1 do
        Uksim.Clock.advance clock cost;
        let line = next (!sent + k) in
        if fast then Nbio.add w line else Buffer.add_string buf line
      done;
      let t0 = Uksim.Clock.ns clock in
      if fast then Nbio.flush w
      else ignore (S.Tcp_socket.send ~block:true stack flow (Buffer.to_bytes buf));
      sent := !sent + batch;
      let target = !sent * proto.reply_len in
      if fast then begin
        (* Count-then-block is race-free under the shared cooperative
           per-core scheduler; the whole batch is timed at one wake-up. *)
        while !recvd < target do
          Uksched.Sched.block ()
        done;
        let now = Uksim.Clock.ns clock in
        for _ = 1 to batch do
          Uksim.Clock.advance clock cost;
          Uksim.Stats.add agg.lat (now -. t0)
        done
      end
      else
        while !recvd < target do
          match S.Tcp_socket.recv ~block:true stack flow ~max:65536 with
          | None -> failwith (proto.name ^ " load: server closed connection")
          | Some data ->
              let before = !recvd / proto.reply_len in
              count data 0 (Bytes.length data);
              let now = Uksim.Clock.ns clock in
              for _ = before + 1 to !recvd / proto.reply_len do
                Uksim.Clock.advance clock cost;
                Uksim.Stats.add agg.lat (now -. t0)
              done
        done
    done;
    if fast then Tcp.set_rx_sink flow None;
    S.Tcp_socket.close stack flow;
    agg.t_end <- Float.max agg.t_end (Uksim.Clock.ns clock)
  in
  for ci = 0 to connections - 1 do
    (* Pinned: the client charges its home core's clock and stack. *)
    ignore
      (Uksched.Sched.spawn sched ~name:(Printf.sprintf "%s-load-%d" proto.name ci) ~pinned:true
         (client_thread ci))
  done

let result_of_agg agg ~t_start =
  let elapsed = agg.t_end -. t_start in
  {
    requests = agg.a_requests;
    elapsed_ns = elapsed;
    rate_per_sec = Uksim.Stats.throughput_per_sec ~events:agg.a_requests ~elapsed_ns:elapsed;
    mean_us = Uksim.Stats.mean agg.lat /. 1e3;
    p50_us = Uksim.Stats.percentile agg.lat 50.0 /. 1e3;
    p99_us = Uksim.Stats.percentile agg.lat 99.0 /. 1e3;
    errors = agg.a_errors;
  }

let run ~transport ~clock ~sched ~stack ~server ?connections ?pipeline ?requests proto =
  let agg = new_agg () in
  let t_start = Uksim.Clock.ns clock in
  spawn ~transport ~clock ~sched ~stack ~server ?connections ?pipeline ?requests ~agg proto;
  Uksched.Sched.run sched;
  result_of_agg agg ~t_start
