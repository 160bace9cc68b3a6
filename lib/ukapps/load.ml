(* The closed-loop load generator, written once for every protocol and
   both transports: a protocol supplies its requests, its client costs and
   an incremental reply scanner, and the transport decides only where the
   bytes go. *)

module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp

type reply = [ `Ok | `Err ]
type scanner = bytes -> int -> int -> on_reply:(reply -> unit) -> bool
type cost = { request : int; reply : int }

type proto = {
  name : string;
  requests : conn:int -> first:int -> int -> string;
  socket : cost;
  netbuf : cost;
  scanner : unit -> scanner;
}

let fixed_scanner reply_len () : scanner =
  let pos = ref 0 (* bytes into the current reply *) and err = ref false in
  fun buf off len ~on_reply ->
    for i = off to off + len - 1 do
      if !pos = 0 then err := Bytes.get buf i = 'E';
      incr pos;
      if !pos = reply_len then begin
        pos := 0;
        on_reply (if !err then `Err else `Ok)
      end
    done;
    true

let fixed ~name ~reply_len requests =
  {
    name;
    requests;
    (* Formatting a line and checking a reply; the netbuf client writes
       straight into pool netbufs and counts replies in place. *)
    socket = { request = 120; reply = 120 };
    netbuf = { request = 40; reply = 40 };
    scanner = fixed_scanner reply_len;
  }

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  errors : int;
}

(* Shared across client groups (one per core in SMP runs): every
   finishing connection pushes the end time forward, so the elapsed window
   closes with the last connection on the slowest core. *)
type agg = {
  lat : Uksim.Stats.t; (* per-reply latency, ns *)
  mutable scheduled : int;
  mutable failed : int;
  mutable t_end : float;
}

let new_agg () = { lat = Uksim.Stats.create (); scheduled = 0; failed = 0; t_end = 0.0 }

let spawn ~transport ~clock ~sched ~stack ~server ~connections ~requests ?(pipeline = 1)
    ?(port_for = fun _ -> None) ~agg proto =
  let per_conn = max 1 (requests / connections) in
  agg.scheduled <- agg.scheduled + (per_conn * connections);
  let cost = match transport with Serve.Socket -> proto.socket | Serve.Netbuf _ -> proto.netbuf in
  let client_thread ci () =
    let next = proto.requests ~conn:ci ~first:(ci * per_conn) in
    let scan = proto.scanner () in
    let flow = S.Tcp_socket.connect stack ?lport:(port_for ci) ~dst:server () in
    let unanswered = ref 0 and sent_at = ref 0.0 and live = ref true in
    let on_reply r =
      Uksim.Stats.add agg.lat (Uksim.Clock.ns clock -. !sent_at);
      if r = `Err then agg.failed <- agg.failed + 1;
      decr unanswered;
      Uksim.Clock.advance clock cost.reply
    in
    (* The server closed, or its replies cannot be framed: the requests
       still unanswered fail, and the connection ends. *)
    let lose () =
      agg.failed <- agg.failed + !unanswered;
      unanswered := 0;
      live := false
    in
    let feed buf off len = if !live && not (scan buf off len ~on_reply) then lose () in
    let out = Serve.sink transport ~clock ~stack flow in
    let await =
      match transport with
      | Serve.Socket ->
          let rec await () =
            if !live && !unanswered > 0 then
              match S.Tcp_socket.recv ~block:true stack flow ~max:65536 with
              | None -> lose ()
              | Some data ->
                  feed data 0 (Bytes.length data);
                  await ()
          in
          await
      | Serve.Netbuf _ ->
          let me = Uksched.Sched.self () in
          Tcp.set_rx_sink flow
            (Some
               (fun nb ->
                 let buf, off, len = Nb.view nb in
                 feed buf off len;
                 Nb.recycle nb;
                 Uksched.Sched.wake sched me));
          (* Count-then-block is race-free under the shared cooperative
             per-core scheduler. A bare FIN wakes only the flow's receive
             waiter, so the client stands in as that while it blocks. *)
          let rec await () =
            if !live && !unanswered > 0 then
              if S.Tcp_socket.state flow <> Tcp.Established then lose ()
              else begin
                Tcp.set_recv_waiter flow (Some me);
                Uksched.Sched.block ();
                Tcp.set_recv_waiter flow None;
                await ()
              end
          in
          await
    in
    let sent = ref 0 in
    while !live && !sent < per_conn do
      let batch = min pipeline (per_conn - !sent) in
      unanswered := batch;
      for k = 0 to batch - 1 do
        Uksim.Clock.advance clock cost.request;
        Serve.write out (next (!sent + k))
      done;
      sent_at := Uksim.Clock.ns clock;
      Serve.send out;
      sent := !sent + batch;
      await ()
    done;
    if transport <> Serve.Socket then Tcp.set_rx_sink flow None;
    S.Tcp_socket.close stack flow;
    agg.t_end <- Float.max agg.t_end (Uksim.Clock.ns clock)
  in
  for ci = 0 to connections - 1 do
    ignore
      (Uksched.Sched.spawn sched ~name:(Printf.sprintf "%s-load-%d" proto.name ci)
         (client_thread ci))
  done

let result_of_agg agg ~t_start : result =
  let elapsed = agg.t_end -. t_start in
  {
    requests = agg.scheduled;
    elapsed_ns = elapsed;
    rate_per_sec = Uksim.Stats.throughput_per_sec ~events:agg.scheduled ~elapsed_ns:elapsed;
    mean_us = Uksim.Stats.mean agg.lat /. 1e3;
    p50_us = Uksim.Stats.percentile agg.lat 50.0 /. 1e3;
    p99_us = Uksim.Stats.percentile agg.lat 99.0 /. 1e3;
    errors = agg.failed;
  }

let run ~transport ~clock ~sched ~stack ~server ~connections ~requests ?pipeline proto =
  let agg = new_agg () in
  let t_start = Uksim.Clock.ns clock in
  spawn ~transport ~clock ~sched ~stack ~server ~connections ~requests ?pipeline ~agg proto;
  Uksched.Sched.run sched;
  result_of_agg agg ~t_start
