module Shim = Uksyscall.Shim
module Binary = Uksyscall.Binary
module A = Uknetstack.Addr
module S = Uknetstack.Stack
module Vfs = Ukvfs.Vfs

type rung = Native | Rewritten | Compat | Linux

let all_rungs = [ Native; Rewritten; Compat; Linux ]

let rung_name = function
  | Native -> "native"
  | Rewritten -> "binary-rewritten"
  | Compat -> "binary-compat"
  | Linux -> "linux-vm"

let dispatch_of = function
  | Native | Rewritten -> Shim.Native_link
  | Compat -> Shim.Binary_compat
  | Linux -> Shim.Linux_vm

type app = Nginx | Redis

let app_name = function Nginx -> "nginx" | Redis -> "redis"

(* --- the recorded traces ------------------------------------------------- *)

let http_header = "HTTP/1.0 200 OK\n\n"
let index_body = "<html>hello from unikraft</html>\n"
let redis_set = "SET k1 v123\n"
let redis_get = "GET k1\n"

(* nginx-class hot loop: stat+read the document once, then serve it over
   an accepted connection. The response body is written from the very
   buffer the file read filled ([&2]), so bytes flow ukvfs -> process
   memory -> uknetstack. *)
let nginx_trace () =
  Trace.of_string
    (Printf.sprintf
       {|trace nginx
openat(-100, "/srv/index.html", 0) = ok
fstat($0, buf[144]) = 0
read($0, buf[4096], 4096) = %d
close($0) = 0
brk(0) = ok
clock_gettime(1, buf[16]) = 0
socket(2, 1, 0) = ok
bind($6, sa[10.0.0.1:80], 16) = 0
listen($6, 8) = 0
accept($6, 0, 0) = ok !
read($9, buf[256], 256) = ok !
write($9, %S, %d) = %d
write($9, &2, $2) = %d
close($9) = 0
close($6) = 0
|}
       (String.length index_body) http_header (String.length http_header)
       (String.length http_header) (String.length index_body))
  |> Result.get_ok

(* redis-class hot loop: SET then GET over one connection. The GET reply
   echoes the buffer the SET request was read into ([&5]) — the value
   travels client -> uknetstack -> process memory -> back. *)
let redis_trace () =
  Trace.of_string
    (Printf.sprintf
       {|trace redis
socket(2, 1, 0) = ok
bind($0, sa[10.0.0.1:6379], 16) = 0
listen($0, 8) = 0
gettimeofday(buf[16], 0) = 0
accept($0, 0, 0) = ok !
read($4, buf[128], 128) = %d !
write($4, "+OK\n", 4) = 4
read($4, buf[128], 128) = %d !
write($4, &5, $5) = %d
close($4) = 0
close($0) = 0
|}
       (String.length redis_set) (String.length redis_get) (String.length redis_set))
  |> Result.get_ok

let trace_of = function Nginx -> nginx_trace () | Redis -> redis_trace ()

(* --- the client side ----------------------------------------------------- *)

(* Deterministic think-time jitter so "seeded replay" exercises real
   timing variation: an LCG stream of 0.1-1 us sleeps. *)
let jitter seed =
  let state = ref (seed land 0x3fffffff) in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    Uksched.Sched.sleep_ns (100.0 +. float_of_int (!state mod 900))

let server_ip = A.Ipv4.of_string "10.0.0.1"

let recv_all stack flow buf =
  let rec go () =
    match S.Tcp_socket.recv ~block:true stack flow ~max:4096 with
    | None -> ()
    | Some data ->
        Buffer.add_bytes buf data;
        go ()
  in
  go ()

let nginx_client stack ~seed ~received ~ok () =
  let think = jitter seed in
  think ();
  let flow = S.Tcp_socket.connect stack ~dst:(server_ip, 80) () in
  think ();
  ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string "GET / HTTP/1.0\n\n"));
  recv_all stack flow received;
  S.Tcp_socket.close stack flow;
  ok := Buffer.contents received = http_header ^ index_body

let redis_client stack ~seed ~received ~ok () =
  let think = jitter seed in
  think ();
  let flow = S.Tcp_socket.connect stack ~dst:(server_ip, 6379) () in
  think ();
  ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string redis_set));
  (match S.Tcp_socket.recv ~block:true stack flow ~max:128 with
  | Some data -> Buffer.add_bytes received data
  | None -> ());
  think ();
  ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string redis_get));
  (match S.Tcp_socket.recv ~block:true stack flow ~max:128 with
  | Some data -> Buffer.add_bytes received data
  | None -> ());
  S.Tcp_socket.close stack flow;
  let got = Buffer.contents received in
  ok :=
    String.length got >= 4
    && String.sub got 0 4 = "+OK\n"
    && (let rec find i =
          i + 4 <= String.length got && (String.sub got i 4 = "v123" || find (i + 1))
        in
        find 4)

(* --- one ladder rung, end to end ----------------------------------------- *)

type report = {
  app : string;
  rung : rung;
  outcome : Trace.outcome;
  ladder_cycles : int;
  wall_cycles : int;
  state_hash : string;
  client_bytes : int;
  client_ok : bool;
}

let must = function Ok v -> v | Error e -> failwith ("Driver: " ^ Ukvfs.Fs.errno_to_string e)

let populate_vfs vfs = function
  | Redis -> ()
  | Nginx ->
      must (Vfs.mkdir vfs "/srv");
      let fd = must (Vfs.open_file vfs "/srv/index.html" ~create:true ()) in
      ignore (must (Vfs.write vfs fd (Bytes.of_string index_body)));
      must (Vfs.close vfs fd)

let run ?(seed = 42) ~rung app =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let da, db = Uknetdev.Loopback.create_pair ~clock ~engine () in
  let mk dev ip mac =
    S.create ~clock ~engine ~sched ~dev
      {
        S.mac = A.Mac.of_int mac;
        ip = A.Ipv4.of_string ip;
        netmask = A.Ipv4.of_string "255.255.255.0";
        gateway = None;
      }
  in
  let server_stack = mk da "10.0.0.1" 0x1 in
  let client_stack = mk db "10.0.0.2" 0x2 in
  let vfs = Vfs.create ~clock in
  (match Vfs.mount vfs ~at:"/" (Ukvfs.Ramfs.create ~clock ()) with
  | Ok () -> ()
  | Error e -> failwith ("Driver: mount: " ^ Ukvfs.Fs.errno_to_string e));
  populate_vfs vfs app;
  let p =
    Personality.create ~clock ~mode:(dispatch_of rung) ~vfs ~stack:server_stack ~sched ()
  in
  let trace = trace_of app in
  let server_result = ref (Error "server fiber did not run") in
  ignore
    (Uksched.Sched.spawn sched ~name:"server" (fun () ->
         server_result :=
           match rung with
           | Native -> Trace.run p trace
           | Rewritten ->
               Trace.run_binary p ~binary:(Binary.rewrite (Trace.to_binary trace)) trace
           | Compat | Linux -> Trace.run_binary p ~binary:(Trace.to_binary trace) trace));
  let received = Buffer.create 256 in
  let client_ok = ref false in
  let client = match app with Nginx -> nginx_client | Redis -> redis_client in
  ignore
    (Uksched.Sched.spawn sched ~name:"client"
       (client client_stack ~seed ~received ~ok:client_ok));
  Uksched.Sched.run sched;
  match !server_result with
  | Error e -> Error (Printf.sprintf "%s/%s: %s" (app_name app) (rung_name rung) e)
  | Ok outcome ->
      let shim = Personality.shim p in
      let counts =
        Shim.call_counts shim
        |> List.map (fun (s, c) -> Printf.sprintf "%d:%d" s c)
        |> String.concat ","
      in
      let state_hash =
        Digest.to_hex
          (Digest.string
             (String.concat "|"
                [
                  Buffer.contents received;
                  Process.mem_digest (Personality.proc p);
                  String.concat "," (Array.to_list (Array.map string_of_int outcome.Trace.results));
                  counts;
                  string_of_int (Uksim.Clock.cycles clock);
                ]))
      in
      Ok
        {
          app = app_name app;
          rung;
          outcome;
          ladder_cycles =
            (Shim.dispatch_cost (dispatch_of rung) * (Trace.length trace + 1))
            + outcome.Trace.interp_cycles;
          wall_cycles = Uksim.Clock.cycles clock;
          state_hash;
          client_bytes = Buffer.length received;
          client_ok = !client_ok;
        }

let ladder ?seed app =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | rung :: rest -> (
        match run ?seed ~rung app with
        | Ok r -> go (r :: acc) rest
        | Error e -> Error e)
  in
  go [] all_rungs
