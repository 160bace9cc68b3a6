(* TCP loss-recovery coverage: a bulk transfer over a Faultnet-wrapped
   loopback that drops every 5th frame (20% systematic loss) must deliver
   every byte intact via retransmission, and the retransmit counters must
   actually fire. *)

module A = Uknetstack.Addr
module S = Uknetstack.Stack
module Tcp = Uknetstack.Tcp
module Fn = Ukfault.Faultnet

let count = Uktrace.Source.count

(* Two stacks over a loopback link whose [client] transmit path goes
   through a fault injector. *)
let faulty_pair plan =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let rng = Uksim.Rng.create 1 in
  let fn = Fn.wrap ~clock ~engine ~rng ~plan da in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      { S.mac = A.Mac.of_int mac; ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0"; gateway = None }
  in
  let client = mk (Fn.dev fn) "10.0.0.1" 0x1 in
  let server = mk db "10.0.0.2" 0x2 in
  (sched, fn, client, server)

(* With [close], the server closes once it has every byte and the client
   closes after reading the server's FIN (a passive close). *)
let transfer ?(close = false) ~total plan =
  let sched, fn, cstack, sstack = faulty_pair plan in
  let payload = Bytes.init total (fun i -> Char.chr ((i * 7) land 0xff)) in
  let received = Buffer.create total in
  let client_flow = ref None in
  ignore
    (Uksched.Sched.spawn sched ~name:"server" (fun () ->
         let l = S.Tcp_socket.listen sstack ~port:80 () in
         match S.Tcp_socket.accept ~block:true l with
         | None -> ()
         | Some flow ->
             let rec pump () =
               if Buffer.length received < total then
                 match S.Tcp_socket.recv ~block:true sstack flow ~max:65536 with
                 | None -> ()
                 | Some data ->
                     Buffer.add_bytes received data;
                     pump ()
             in
             pump ();
             if close then S.Tcp_socket.close sstack flow));
  ignore
    (Uksched.Sched.spawn sched ~name:"client" (fun () ->
         let flow = S.Tcp_socket.connect cstack ~dst:(A.Ipv4.of_string "10.0.0.2", 80) () in
         client_flow := Some flow;
         let sent = ref 0 in
         while !sent < total do
           let chunk = Bytes.sub payload !sent (min 8192 (total - !sent)) in
           sent := !sent + S.Tcp_socket.send ~block:true cstack flow chunk
         done;
         if close then begin
           while S.Tcp_socket.recv ~block:true cstack flow ~max:1 <> None do
             ()
           done;
           S.Tcp_socket.close cstack flow;
           (* Stay until the last ACK is in (the FIN may need an RTO). *)
           let rec linger n =
             if n > 0 && S.Tcp_socket.state flow <> Tcp.Closed then begin
               Uksched.Sched.sleep_ns 1.0e6;
               linger (n - 1)
             end
           in
           linger 1000
         end));
  Uksched.Sched.run sched;
  (fn, cstack, Option.get !client_flow, payload, Buffer.to_bytes received)

let test_every_5th_dropped () =
  let fn, cstack, _, payload, received = transfer ~total:32_768 (Fn.plan ~drop_every:5 ()) in
  Alcotest.(check int) "every byte delivered" (Bytes.length payload) (Bytes.length received);
  Alcotest.(check bool) "delivered intact" true (Bytes.equal payload received);
  Alcotest.(check bool) "injector really dropped frames" true (count (Fn.source fn) "dropped" > 0);
  Alcotest.(check bool) "RTO retransmissions fired" true
    (count (S.source cstack) "tcp_retransmits" > 0)

(* A flow leaves its stack's table when a passive close reaches CLOSED;
   the retransmits it made must stay counted. *)
let test_retransmits_outlive_a_passive_close () =
  let _, cstack, flow, payload, received =
    transfer ~close:true ~total:32_768 (Fn.plan ~drop_every:5 ())
  in
  Alcotest.(check bool) "delivered intact" true (Bytes.equal payload received);
  Alcotest.(check string) "client flow closed" "CLOSED"
    (Tcp.state_to_string (S.Tcp_socket.state flow));
  Alcotest.(check bool) "its retransmits still counted" true
    (count (S.source cstack) "tcp_retransmits" > 0)

let test_fast_retransmit_under_loss () =
  (* A light random-loss schedule with plenty of segments in flight: dup
     ACKs must trigger fast retransmit at least once. *)
  let _, cstack, _, payload, received = transfer ~total:65_536 (Fn.plan ~drop:0.05 ()) in
  Alcotest.(check bool) "delivered intact" true (Bytes.equal payload received);
  Alcotest.(check bool) "fast retransmit fired" true
    (count (S.source cstack) "tcp_fast_retransmits" >= 1)

let test_lossless_has_no_retransmits () =
  let fn, cstack, _, payload, received = transfer ~total:16_384 (Fn.plan ()) in
  Alcotest.(check bool) "delivered intact" true (Bytes.equal payload received);
  Alcotest.(check int) "no injected drops" 0 (count (Fn.source fn) "dropped");
  Alcotest.(check int) "no retransmits on a clean link" 0
    (count (S.source cstack) "tcp_retransmits")

let test_duplication_is_harmless () =
  let _, _, _, payload, received = transfer ~total:16_384 (Fn.plan ~duplicate:0.3 ()) in
  Alcotest.(check bool) "duplicates do not corrupt the stream" true
    (Bytes.equal payload received)

let test_corruption_is_detected () =
  (* Corrupted frames must be discarded by checksums and recovered by
     retransmission — never delivered to the application. *)
  let _, _, _, payload, received = transfer ~total:16_384 (Fn.plan ~corrupt:0.05 ()) in
  Alcotest.(check bool) "stream survives bit flips intact" true (Bytes.equal payload received)

let suite =
  [
    Alcotest.test_case "every 5th segment dropped: intact + retransmits" `Quick
      test_every_5th_dropped;
    Alcotest.test_case "retransmits stay counted after a passive close" `Quick
      test_retransmits_outlive_a_passive_close;
    Alcotest.test_case "fast retransmit under random loss" `Quick
      test_fast_retransmit_under_loss;
    Alcotest.test_case "clean link: zero retransmits" `Quick test_lossless_has_no_retransmits;
    Alcotest.test_case "duplication harmless" `Quick test_duplication_is_harmless;
    Alcotest.test_case "corruption detected and recovered" `Quick test_corruption_is_detected;
  ]
