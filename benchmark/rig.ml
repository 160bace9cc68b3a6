(* Rig construction: every call the benchmark makes into the serving
   stack to stand a workload up lives in this file. The entry points used
   here are the benchmark's dependency surface (see README.md):
   Ukapps.Cluster.create, Httpd.create_fast, Resp_store.create and
   execute, Ukapps.Store.create_fast and populate, Ukstore.Store.format,
   open_, get, commit and head, and Ukblock.Virtio_blk.create. *)

module Cl = Ukapps.Cluster
module St = Ukstore.Store
module B = Ukblock.Blockdev

type proto =
  | Http
  | Resp of { keys : int; set_frac : float }
  | Kv of { keys : int; set_frac : float; commit_every : int }

type shape = {
  name : string;
  cores : int;  (** server cores; the same number of client cores drives them *)
  conns : int;  (** connections per client core *)
  pipeline : int;
  requests : int;  (** per client core, at full size *)
  proto : proto;
  transport : Client.transport;
}

let workloads =
  [
    { name = "http_fast"; cores = 4; conns = 32; pipeline = 8; requests = 100_000; proto = Http;
      transport = Client.Fast };
    { name = "kv_socket"; cores = 2; conns = 8; pipeline = 16; requests = 100_000;
      proto = Resp { keys = 4096; set_frac = 0.1 }; transport = Client.Socket };
    { name = "store_write"; cores = 2; conns = 8; pipeline = 8; requests = 16_000;
      proto = Kv { keys = 4096; set_frac = 0.9; commit_every = 32 }; transport = Client.Fast };
    { name = "store_read"; cores = 2; conns = 8; pipeline = 8; requests = 48_000;
      proto = Kv { keys = 4096; set_frac = 0.1; commit_every = 32 }; transport = Client.Fast };
  ]

(* --- the ukblock shim -------------------------------------------------------- *)

(* Wraps a store device's Blockdev record to count its calls and the
   virtual time spent inside them. In a traced run each call is also a
   "ukblock" span on the owning server core. *)
type blk = {
  mutable writes : int;
  mutable sectors_written : int;
  mutable flushes : int;
  mutable wait_ns : float;
}

let blk_reset b =
  b.writes <- 0;
  b.sectors_written <- 0;
  b.flushes <- 0;
  b.wait_ns <- 0.0

let shim ~clock ~core b (dev : B.t) =
  let timed name f =
    Uktrace.Tracer.span Uktrace.Tracer.default clock ~core ~cat:"ukblock" name (fun () ->
        let t0 = Uksim.Clock.ns clock in
        let r = f () in
        b.wait_ns <- b.wait_ns +. (Uksim.Clock.ns clock -. t0);
        r)
  in
  {
    dev with
    B.write_sync =
      (fun ~lba data ->
        timed "write_sync" (fun () ->
            let r = dev.B.write_sync ~lba data in
            if Result.is_ok r then begin
              b.writes <- b.writes + 1;
              b.sectors_written <- b.sectors_written + (Bytes.length data / dev.B.sector_size)
            end;
            r));
    read_sync = (fun ~lba ~sectors -> timed "read_sync" (fun () -> dev.B.read_sync ~lba ~sectors));
    flush =
      (fun () ->
        timed "flush" (fun () ->
            b.flushes <- b.flushes + 1;
            dev.B.flush ()));
  }

(* --- request streams ---------------------------------------------------------- *)

let http_path = "/index.html"

(* Requests differ only in the length of a header the server ignores, so
   request sizes, and with them segment packing, vary with the seed; with
   identical requests the run settles into one of a few fixed schedules
   depending on the seed. A batch of 8 of the longest (178 bytes) still
   fits one segment. *)
let http_requests =
  Array.init 129 (fun pad ->
      Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nX-Pad: %s\r\n\r\n" http_path
        (String.make pad 'p'))

let http_reply page =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\nServer: ukraft\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
    (String.length page) page

let bulk s = Printf.sprintf "$%d\r\n%s\r\n" (String.length s) s
let resp_command args =
  Printf.sprintf "*%d\r\n%s" (List.length args) (String.concat "" (List.map bulk args))

let resp_key k = Printf.sprintf "key:%06d" k

(* Three letters that spell the key index in base 26. *)
let resp_value k = String.init 3 (fun i -> Char.chr (97 + (k / [| 1; 26; 676 |].(i) mod 26)))

(* Store replies are "OK <hash16>\n"; a hash the client cannot predict
   (a SET's new root, a COMMIT's id) is a wildcard. *)
let kv_any = "OK " ^ String.make 16 Client.wildcard ^ "\n"
let kv_get_reply v = Printf.sprintf "OK %016x\n" (Ukvfs.Digest.string_hash v)

(* One server core's store: the raw device, the store the server runs on,
   and the value every key must hold once all acknowledged SETs land. *)
type store = {
  dev : B.t;
  st : St.t;
  expected : (string, string) Hashtbl.t;
  clock : Uksim.Clock.t;
}

type t = {
  shape : shape;
  cluster : Cl.t;
  port : int;
  stores : store array;
  blks : blk array;
  next : core:int -> conn:int -> Uksim.Rng.t -> int -> Client.request;
      (** the request stream of one connection, by sequence number *)
}

let build ~seed ~corrupt ~scale shape =
  Uktrace.Registry.clear ();
  let fastpath =
    match shape.transport with Client.Fast -> Some Cl.fastpath_default | Client.Socket -> None
  in
  let c = Cl.create ~seed ?fastpath ~n:shape.cores () in
  let smp = Cl.smp c in
  let clock i = Uksmp.Smp.clock_of smp ~core:i and sched i = Uksmp.Smp.sched_of smp ~core:i in
  let alloc i = Ukalloc.Alloc.traced ~clock:(clock i) (Cl.alloc_view c i) in
  let rig port ?(stores = [||]) ?(blks = [||]) next =
    { shape; cluster = c; port; stores; blks; next }
  in
  match shape.proto with
  | Http ->
      let page = Ukapps.Httpd.default_page in
      for i = 0 to shape.cores - 1 do
        ignore
          (Ukapps.Httpd.create_fast ~clock:(clock i) ~sched:(sched i) ~stack:(Cl.server_stack c i)
             ~alloc:(alloc i) ~port:80 ~core:i
             (Ukapps.Httpd.In_memory [ (http_path, page) ]))
      done;
      (* The negative control: expect a page with one byte changed. *)
      let flip i ch = if i = 0 then Char.chr (Char.code ch lxor 1) else ch in
      let expected = if corrupt then String.mapi flip page else page in
      let reqs =
        Array.map
          (fun wire -> { Client.wire; expect = http_reply expected; commit = false; set_bytes = 0 })
          http_requests
      in
      rig 80 (fun ~core:_ ~conn:_ rng _ -> reqs.(Uksim.Rng.int rng (Array.length reqs)))
  | Resp { keys; set_frac } ->
      let first = ref None in
      let workers =
        Array.init shape.cores (fun i ->
            let w =
              Ukapps.Resp_store.create ~clock:(clock i) ~sched:(sched i) ~stack:(Cl.server_stack c i)
                ~alloc:(alloc i) ~port:6379 ~core:i ?share_with:!first ()
            in
            if !first = None then first := Some w;
            w)
      in
      for k = 0 to keys - 1 do
        ignore (Ukapps.Resp_store.execute workers.(0) [ "SET"; resp_key k; resp_value k ])
      done;
      (* A SET writes the key's populated value back, so every GET must
         return it whatever order the cores run in. *)
      let req wire expect set_bytes = { Client.wire; expect; commit = false; set_bytes } in
      let get =
        Array.init keys (fun k -> req (resp_command [ "GET"; resp_key k ]) (bulk (resp_value k)) 0)
      in
      let set =
        Array.init keys (fun k -> req (resp_command [ "SET"; resp_key k; resp_value k ]) "+OK\r\n" 3)
      in
      rig 6379 (fun ~core:_ ~conn:_ rng _ ->
          let k = Uksim.Rng.int rng keys in
          if Uksim.Rng.float rng 1.0 < set_frac then set.(k) else get.(k))
  | Kv { keys; set_frac; commit_every } ->
      (* Populating is most of the set-up; smaller runs populate less. *)
      let keys = max 256 (int_of_float (float_of_int keys *. scale)) in
      let blks =
        Array.init shape.cores (fun _ -> { writes = 0; sectors_written = 0; flushes = 0; wait_ns = 0.0 })
      in
      let stores =
        Array.init shape.cores (fun i ->
            let dev =
              Ukblock.Virtio_blk.create ~clock:(clock i) ~engine:(Uksmp.Smp.engine_of smp ~core:i)
                ~capacity_sectors:65536 ()
            in
            (* The journal must hold the populate commit in one record. *)
            let shimmed = shim ~clock:(clock i) ~core:i blks.(i) dev in
            let st =
              match St.format ~clock:(clock i) ~journal_sectors:1024 shimmed with
              | Ok st -> st
              | Error e -> failwith ("Rig.build: format: " ^ Ukvfs.Fs.errno_to_string e)
            in
            let srv =
              Ukapps.Store.create_fast ~clock:(clock i) ~sched:(sched i) ~stack:(Cl.server_stack c i)
                ~port:7000 ~core:i ~store:st ()
            in
            Ukapps.Store.populate srv keys;
            let expected = Hashtbl.create keys in
            (match St.to_list st with
            | Ok kvs -> List.iter (fun (k, v) -> Hashtbl.replace expected k v) kvs
            | Error e -> failwith ("Rig.build: populate: " ^ Ukvfs.Fs.errno_to_string e));
            { dev; st; expected; clock = clock i })
      in
      (* Each connection owns every [conns]-th key of its core's store, so
         the value a GET must see is known when the GET is generated. *)
      let owned =
        Array.map
          (fun s ->
            let ks = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) s.expected []) in
            Array.init shape.conns (fun ci ->
                Array.of_list (List.filteri (fun i _ -> i mod shape.conns = ci) ks)))
          stores
      in
      let commit = { Client.wire = "COMMIT\n"; expect = kv_any; commit = true; set_bytes = 0 } in
      rig 7000 ~stores ~blks (fun ~core ~conn rng seq ->
          let mine = owned.(core).(conn) and expected = stores.(core).expected in
          if seq mod commit_every = commit_every - 1 then commit
          else
            let k = mine.(Uksim.Rng.int rng (Array.length mine)) in
            if Uksim.Rng.float rng 1.0 < set_frac then begin
              let v = Printf.sprintf "v%d.%d.%d" conn seq (Uksim.Rng.int rng 1_000_000) in
              Hashtbl.replace expected k v;
              { Client.wire = Printf.sprintf "SET %s %s\n" k v; expect = kv_any; commit = false;
                set_bytes = String.length v }
            end
            else
              { Client.wire = "GET " ^ k ^ "\n"; expect = kv_get_reply (Hashtbl.find expected k);
                commit = false; set_bytes = 0 })

(* Connect every client core's connections and queue their request
   streams; nothing runs until the SMP domain does. *)
let spawn_clients t ~seed ~per_conn ~tally ~spans =
  let c = t.cluster and shape = t.shape in
  let smp = Cl.smp c in
  let ip s = Uknetstack.Addr.Ipv4.to_int (Uknetstack.Stack.conf s).Uknetstack.Stack.ip in
  let server_ip = (Uknetstack.Stack.conf (Cl.server_stack c 0)).Uknetstack.Stack.ip in
  let ports =
    Client.steered_ports ~n:shape.cores ~per_core:shape.conns ~client_ip:(ip (Cl.client_stack c 0))
      ~server_ip:(ip (Cl.server_stack c 0)) ~dport:t.port
  in
  for j = 0 to shape.cores - 1 do
    let core = shape.cores + j in
    let clock = Uksmp.Smp.clock_of smp ~core and sched = Uksmp.Smp.sched_of smp ~core in
    for ci = 0 to shape.conns - 1 do
      let rng = Uksim.Rng.create ((seed * 7919) + (j * 131) + ci) in
      let offset_ns = Uksim.Rng.float rng 10_000.0 in
      let conn =
        { Client.core = j; id = ci; clock; tally; queue = Queue.create (); matched = 0; bad = false;
          spans }
      in
      let next = t.next ~core:j ~conn:ci rng in
      ignore
        (Uksched.Sched.spawn sched ~name:(Printf.sprintf "ukbench-%d-%d" j ci) ~pinned:true
           (Client.conn_loop ~transport:shape.transport ~stack:(Cl.client_stack c j) ~sched
              ~server:(server_ip, t.port) ~lport:ports.(j).(ci) ~pipeline:shape.pipeline
              ~total:per_conn ~offset_ns ~next conn))
    done
  done

(* Open the measurement window with every core at the slowest core's
   present: bring-up work is uneven across cores. Returns the window start
   in virtual ns. *)
let align t =
  let smp = Cl.smp t.cluster in
  let n = Uksmp.Smp.n_cores smp in
  let target = ref 0 in
  for core = 0 to n - 1 do
    target := max !target (Uksim.Clock.cycles (Uksmp.Smp.clock_of smp ~core))
  done;
  for core = 0 to n - 1 do
    let clk = Uksmp.Smp.clock_of smp ~core in
    Uksim.Clock.advance clk (!target - Uksim.Clock.cycles clk)
  done;
  Uksim.Clock.ns_of_cycles !target

(* After the load: commit what is still pending, remount every device
   from the medium, and count the keys whose value is not the last
   acknowledged SET (plus one if the remounted head moved). *)
let verify_stores t =
  Array.fold_left
    (fun bad s ->
      match St.commit s.st () with
      | Error _ -> bad + 1
      | Ok head -> (
          match St.open_ ~clock:s.clock s.dev with
          | Error _ -> bad + 1
          | Ok st' ->
              let moved = if St.head st' = head then 0 else 1 in
              let wrong =
                Hashtbl.fold
                  (fun k v acc -> match St.get st' k with Ok (Some v') when v' = v -> acc | _ -> acc + 1)
                  s.expected 0
              in
              let extra =
                match St.to_list st' with
                | Ok l -> abs (List.length l - Hashtbl.length s.expected)
                | Error _ -> 1
              in
              bad + moved + wrong + extra))
    0 t.stores
