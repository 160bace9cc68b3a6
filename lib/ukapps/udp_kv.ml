module S = Uknetstack.Stack
module A = Uknetstack.Addr
module Nb = Uknetdev.Netbuf
module Nd = Uknetdev.Netdev
module P = Uknetstack.Pkt

type store = {
  clock : Uksim.Clock.t;
  alloc : Ukalloc.Alloc.t;
  table : (string, int * string) Hashtbl.t; (* key -> (alloc addr, value) *)
}

let hash_cost = 130

let create_store ~clock ~alloc = { clock; alloc; table = Hashtbl.create 1024 }

let store_set st key value =
  Uksim.Clock.advance st.clock hash_cost;
  (match Hashtbl.find_opt st.table key with
  | Some (addr, _) -> Ukalloc.Alloc.uk_free st.alloc addr
  | None -> ());
  match Ukalloc.Alloc.uk_malloc st.alloc (max 16 (String.length value)) with
  | Some addr -> Hashtbl.replace st.table key (addr, value)
  | None -> ()

let store_get st key =
  Uksim.Clock.advance st.clock hash_cost;
  match Hashtbl.find_opt st.table key with
  | Some (_, v) -> Some v
  | None -> None

let store_size st = Hashtbl.length st.table

(* Request processing shared by both servers. *)
let answer st request =
  match String.split_on_char ' ' request with
  | [ "G"; key ] -> ( match store_get st key with Some v -> v | None -> "MISS")
  | "S" :: key :: rest ->
      store_set st key (String.concat " " rest);
      "OK"
  | _ -> "ERR"

(* The UDP port both builds serve. *)
let port = 5000

(* --- socket build (the LWIP row) ---------------------------------------- *)

let serve_sockets ~sched ~stack ~store () =
  let _ =
    Uksched.Sched.spawn sched ~name:"udpkv-socket" ~daemon:true (fun () ->
        let sock = S.Udp_socket.bind stack ~port in
        let rec loop () =
          match S.Udp_socket.recvfrom ~block:true sock with
          | None -> ()
          | Some (src, sport, data) ->
              let reply = answer store (Bytes.to_string data) in
              S.Udp_socket.sendto sock ~dst:(src, sport) (Bytes.of_string reply);
              loop ()
        in
        loop ())
  in
  ()

(* --- specialized build (the uknetdev row) -------------------------------- *)

(* Per-packet budget of the specialized path: inline header validation and
   in-place swap (no stack layers, no socket, no scheduler hand-offs). *)
let spec_parse_cost = 95
let spec_reply_cost = 80

let serve_netdev ~clock ~sched ~dev ~store ~mac ~ip () =
  (* The paper's mixed mode (§3.1): poll under load, arm the queue
     interrupt and park only when the ring runs dry. *)
  let tid =
    Uksched.Sched.spawn sched ~name:"udpkv-netdev" ~daemon:true (fun () ->
        let rec loop () =
          let pkts = dev.Nd.rx_burst ~qid:0 ~max:64 in
          let replies = ref [] in
          List.iter
            (fun nb ->
              Uksim.Clock.advance clock spec_parse_cost;
              (match P.Eth.decode nb with
              | Ok { P.Eth.proto = P.Eth.Ipv4; src = peer_mac; _ } -> (
                  match P.Ipv4.decode nb with
                  | Ok { P.Ipv4.proto = P.Ipv4.Udp; src = peer_ip; dst; _ }
                    when A.Ipv4.equal dst ip -> (
                      match P.Udp.decode ~src:peer_ip ~dst nb with
                      | Ok { P.Udp.src_port; dst_port } when dst_port = port ->
                          let reply = answer store (Bytes.to_string (Nb.copy_out nb)) in
                          Uksim.Clock.advance clock spec_reply_cost;
                          let out = Nb.of_bytes (Bytes.of_string reply) in
                          P.Udp.encode
                            { P.Udp.src_port = port; dst_port = src_port }
                            ~src:ip ~dst:peer_ip out;
                          P.Ipv4.encode
                            (P.Ipv4.header ~src:ip ~dst:peer_ip ~proto:P.Ipv4.Udp
                               ~payload_len:(Nb.len out))
                            out;
                          P.Eth.encode { P.Eth.dst = peer_mac; src = mac; proto = P.Eth.Ipv4 } out;
                          replies := out :: !replies
                      | Ok _ | Error _ -> ())
                  | Ok _ | Error _ -> ())
              | Ok _ | Error _ -> ());
              Nb.recycle nb)
            pkts;
          if !replies <> [] then
            ignore (dev.Nd.tx_burst ~qid:0 (Array.of_list (List.rev !replies)));
          if pkts = [] then Uksched.Sched.block () else Uksched.Sched.yield ();
          loop ()
        in
        loop ())
  in
  dev.Nd.configure_queue ~qid:0
    {
      Nd.rx_path = Nd.Zero_copy;
      mode = Nd.Interrupt_driven;
      rx_handler = Some (fun () -> Uksched.Sched.wake sched tid);
    }

(* --- clients --------------------------------------------------------------- *)

module Client = struct
  type result = { requests : int; replies : int; elapsed_ns : float; rate_per_sec : float }

  let key_of i = Printf.sprintf "k%04d" (i land 0x3ff)

  let request_of i =
    if i land 7 = 0 then Printf.sprintf "S %s value-%d" (key_of i) i
    else Printf.sprintf "G %s" (key_of i)

  let inflight = 32 (* requests outstanding in the socket client's window *)
  let batch = 32 (* request frames per raw-packet TX burst *)

  let run_sockets ~clock ~sched ~stack ~server:(sip, sport) ?(requests = 20_000) () =
    let sock = S.Udp_socket.bind stack ~port:6000 in
    let replies = ref 0 in
    let t_start = ref 0.0 and t_end = ref 0.0 in
    let _ =
      Uksched.Sched.spawn sched ~name:"udpkv-client" (fun () ->
          t_start := Uksim.Clock.ns clock;
          let sent = ref 0 in
          let window () =
            while !sent < requests && !sent - !replies < inflight do
              Uksim.Clock.advance clock 80;
              S.Udp_socket.sendto sock ~dst:(sip, sport) (Bytes.of_string (request_of !sent));
              incr sent
            done
          in
          window ();
          while !replies < requests do
            (match S.Udp_socket.recvfrom ~block:true sock with
            | Some _ -> incr replies
            | None -> ());
            window ()
          done;
          t_end := Uksim.Clock.ns clock)
    in
    Uksched.Sched.run sched;
    let elapsed = !t_end -. !t_start in
    {
      requests;
      replies = !replies;
      elapsed_ns = elapsed;
      rate_per_sec = Uksim.Stats.throughput_per_sec ~events:!replies ~elapsed_ns:elapsed;
    }

  let run_netdev ~clock ~sched ~dev ~mac ~ip ~server_mac ~server:(sip, sport)
      ?(requests = 50_000) () =
    dev.Nd.configure_queue ~qid:0
      { Nd.rx_path = Nd.Zero_copy; mode = Nd.Polling; rx_handler = None };
    let replies = ref 0 in
    let t_start = ref 0.0 and t_end = ref 0.0 in
    let craft i =
      let out = Nb.of_bytes (Bytes.of_string (request_of i)) in
      P.Udp.encode { P.Udp.src_port = 6000; dst_port = sport } ~src:ip ~dst:sip out;
      P.Ipv4.encode
        (P.Ipv4.header ~src:ip ~dst:sip ~proto:P.Ipv4.Udp ~payload_len:(Nb.len out))
        out;
      P.Eth.encode { P.Eth.dst = server_mac; src = mac; proto = P.Eth.Ipv4 } out;
      out
    in
    let _ =
      Uksched.Sched.spawn sched ~name:"udpkv-pktgen" (fun () ->
          t_start := Uksim.Clock.ns clock;
          let sent = ref 0 in
          while !replies < requests do
            (* Keep a bounded number of requests outstanding. *)
            if !sent < requests && !sent - !replies < 128 then begin
              let n = min batch (requests - !sent) in
              let pkts = Array.init n (fun k -> craft (!sent + k)) in
              Uksim.Clock.advance clock (40 * n);
              let accepted = dev.Nd.tx_burst ~qid:0 pkts in
              sent := !sent + accepted
            end;
            let got = dev.Nd.rx_burst ~qid:0 ~max:64 in
            List.iter
              (fun nb ->
                incr replies;
                Nb.recycle nb)
              got;
            Uksim.Clock.advance clock 60;
            Uksched.Sched.yield ()
          done;
          t_end := Uksim.Clock.ns clock)
    in
    Uksched.Sched.run sched;
    let elapsed = !t_end -. !t_start in
    {
      requests;
      replies = !replies;
      elapsed_ns = elapsed;
      rate_per_sec = Uksim.Stats.throughput_per_sec ~events:!replies ~elapsed_ns:elapsed;
    }
end
