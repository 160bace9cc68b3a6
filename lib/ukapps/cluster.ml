(* Multicore serving harness: 2n cores over uksmp — n server cores and n
   client cores — joined by a multi-queue loopback pair with RSS.

   Topology (for n = 2):

     server core 0  stack qid 0 --\            /-- stack qid 0  client core 2
                                   loopback pair
     server core 1  stack qid 1 --/            \-- stack qid 1  client core 3

   Each side behaves like one machine with a multi-queue NIC: all queues
   of a side share that side's MAC and IP, and one stack instance owns
   each queue (SO_REUSEPORT-style sharding — every per-core stack runs its
   own listener on the same port). The symmetric RSS hash sends both
   directions of a flow to queue [hash mod n], and the load runners pick
   client source ports whose hash selects their own queue, so core j talks
   to server core j and flows never cross cores. *)

module S = Uknetstack.Stack
module A = Uknetstack.Addr
module Nb = Uknetdev.Netbuf

type alloc_mode = Arena | Shared_lock

(* Datapath ingredient knobs — each independently ablatable (the fast-path
   ablation matrix). {!create} without one builds every stack with
   [fastpath_default] minus TX coalescing. *)
type fastpath = {
  rx_batch : int;  (** descriptors per poll; 1 = per-packet processing *)
  rx_copy : bool;  (** true = legacy copy-into-fresh-buffer RX path *)
  tx_coalesce : bool;  (** one TX ring burst per poll window *)
  shared_pool : bool;  (** one spinlocked netbuf pool for all server cores *)
}

let fastpath_default =
  { rx_batch = 64; rx_copy = false; tx_coalesce = true; shared_pool = false }

type t = {
  smp : Uksmp.Smp.t;
  n : int;
  server_stacks : S.t array;
  client_stacks : S.t array;
  allocs : Ukalloc.Alloc.t array; (* server-side per-core views *)
  alloc_spin : Uklock.Lock.Spin.t;
}

let server_ip = A.Ipv4.of_string "10.0.0.1"
let client_ip = A.Ipv4.of_string "10.0.0.2"

let create ?seed:_ ?(alloc_mode = Arena) ?fastpath ~n () =
  if n <= 0 then invalid_arg "Cluster.create: n must be positive";
  let smp = Uksmp.Smp.create ~cores:(2 * n) () in
  (* Feed the uktrace profiling sampler: per-step cycle deltas attribute
     to whatever span is open on the stepped core. A no-op (and
     behaviour-preserving) when the default tracer is disabled. *)
  Uksmp.Smp.set_step_observer smp
    (Some
       (fun ~core ~cycles -> Uktrace.Tracer.attribute Uktrace.Tracer.default ~core ~cycles));
  let queues side =
    (* server cores are 0..n-1, client cores n..2n-1 *)
    Array.init n (fun i ->
        let core = (match side with `Server -> i | `Client -> n + i) in
        (Uksmp.Smp.clock_of smp ~core, Uksmp.Smp.engine_of smp ~core))
  in
  let dev_a, dev_b =
    Uknetdev.Loopback.create_pair
      ~clock:(Uksmp.Smp.clock_of smp ~core:0)
      ~engine:(Uksmp.Smp.engine_of smp ~core:0)
      ~queues_a:(queues `Server) ~queues_b:(queues `Client) ()
  in
  (* The allocator backend lives on a dummy clock: its internal charges go
     nowhere, and the spinlock hold in Percore / shared_lock_views is the
     modeled cost — identical for both modes, so the ablation compares
     pure serialization. *)
  let backend =
    Ukalloc.Tlsf.create ~clock:(Uksim.Clock.create ()) ~base:(1 lsl 26) ~len:(1 lsl 26)
  in
  let server_clocks = Array.init n (fun i -> Uksmp.Smp.clock_of smp ~core:i) in
  let allocs, alloc_spin =
    match alloc_mode with
    | Arena ->
        let arena = Ukalloc.Percore.create ~clocks:server_clocks ~backend () in
        (Array.init n (fun i -> Ukalloc.Percore.view arena ~core:i), Ukalloc.Percore.lock arena)
    | Shared_lock -> Ukalloc.Percore.shared_lock_views ~clocks:server_clocks ~backend ()
  in
  let fp = Option.value fastpath ~default:{ fastpath_default with tx_coalesce = false } in
  (* Shared-pool ablation: one netbuf pool serves every server stack, and
     each take pays a spinlock acquire against the caller's core
     clock — the serialization the per-core pools exist to avoid. The
     pool's own clock is a dummy; costs are charged via [on_op]. *)
  let shared_pool =
    if fp.shared_pool then begin
      let psp = Uklock.Lock.Spin.create ~name:"nbpool" () in
      Some
        (Nb.Pool.create ~clock:(Uksim.Clock.create ())
           ~on_op:(fun clock -> Uklock.Lock.Spin.acquire psp clock ~hold:30)
           ~count:(n * 512) ~size:2048 ())
    end
    else None
  in
  let mk_stack ~core ~dev ~qid ~ip ~mac ~server =
    let cfg =
      { S.mac = A.Mac.of_int mac; ip; netmask = A.Ipv4.of_string "255.255.255.0";
        gateway = None }
    in
    let clock = Uksmp.Smp.clock_of smp ~core in
    let engine = Uksmp.Smp.engine_of smp ~core in
    let sched = Uksmp.Smp.sched_of smp ~core in
    S.create ~clock ~engine ~sched ~dev ~qid ~rx_batch:fp.rx_batch ~rx_copy:fp.rx_copy
      ~tx_coalesce:fp.tx_coalesce
      ?pool:(if server then shared_pool else None)
      cfg
  in
  let server_stacks =
    Array.init n (fun i ->
        mk_stack ~core:i ~dev:dev_a ~qid:i ~ip:server_ip ~mac:0xA ~server:true)
  in
  let client_stacks =
    Array.init n (fun j ->
        mk_stack ~core:(n + j) ~dev:dev_b ~qid:j ~ip:client_ip ~mac:0xB ~server:false)
  in
  { smp; n; server_stacks; client_stacks; allocs; alloc_spin }

let smp t = t.smp
let server_stack t i = t.server_stacks.(i)
let client_stack t j = t.client_stacks.(j)
let alloc_view t i = t.allocs.(i)
let alloc_spin t = t.alloc_spin
let trace_hash t = Uksmp.Smp.trace_hash t.smp
let elapsed_ns t = Uksmp.Smp.elapsed_ns t.smp

(* Distribute globally unique source ports so that connection [ci] of
   client core [j] hashes to queue [j]. Ports must be globally unique
   because all client stacks share one IP — a reused port would collide
   in the target server stack's connection table. *)
let steered_ports t ~dport ~per_core =
  let buckets = Array.make t.n [] in
  let filled = ref 0 in
  let p = ref 20000 in
  while !filled < t.n do
    let q =
      Uknetdev.Rss.queue_of_tuple ~n_queues:t.n ~proto:6
        ~src_ip:(A.Ipv4.to_int client_ip) ~src_port:!p ~dst_ip:(A.Ipv4.to_int server_ip)
        ~dst_port:dport
    in
    if List.length buckets.(q) < per_core then begin
      buckets.(q) <- !p :: buckets.(q);
      if List.length buckets.(q) = per_core then incr filled
    end;
    incr p;
    if !p > 60000 then invalid_arg "Cluster.steered_ports: port search exhausted"
  done;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

let t_start t =
  (* Barrier before the load: align every core on the slowest core's
     present (bring-up work — stacks, servers, prepopulation — is uneven
     across cores). Without this, a lagging core's first contended lock
     acquire would spin across the whole bring-up epoch and pollute the
     contention stats; with it, the measurement window opens with all
     cores synchronized, as a wall-clock benchmark would. *)
  let target = ref 0 in
  for core = 0 to (2 * t.n) - 1 do
    target := max !target (Uksim.Clock.cycles (Uksmp.Smp.clock_of t.smp ~core))
  done;
  for core = 0 to (2 * t.n) - 1 do
    let c = Uksmp.Smp.clock_of t.smp ~core in
    let d = !target - Uksim.Clock.cycles c in
    if d > 0 then Uksim.Clock.advance c d
  done;
  Uksim.Clock.ns (Uksmp.Smp.clock_of t.smp ~core:0)

let clock_of t core = Uksmp.Smp.clock_of t.smp ~core
let sched_of t core = Uksmp.Smp.sched_of t.smp ~core

(* Spawn one client group per client core, each steered at its server
   core, then drive the whole SMP domain to completion. *)
let run_load t ~transport ~port ~connections_per_core ~requests_per_core ?pipeline proto =
  let agg = Load.new_agg () in
  let ports = steered_ports t ~dport:port ~per_core:connections_per_core in
  for j = 0 to t.n - 1 do
    let core = t.n + j in
    Load.spawn ~transport ~clock:(clock_of t core) ~sched:(sched_of t core)
      ~stack:t.client_stacks.(j) ~server:(server_ip, port) ~connections:connections_per_core
      ~requests:requests_per_core ?pipeline
      ~port_for:(fun ci -> Some ports.(j).(ci))
      ~agg proto
  done;
  let start = t_start t in
  Uksmp.Smp.run t.smp;
  Load.result_of_agg agg ~t_start:start

(* --- httpd ---------------------------------------------------------------- *)

let add_httpd t ~transport ?(port = 80) content =
  Array.init t.n (fun i ->
      Httpd.serve ~transport ~clock:(clock_of t i) ~sched:(sched_of t i)
        ~stack:t.server_stacks.(i) ~alloc:t.allocs.(i) ~port ~core:i content)

(* --- RESP store ----------------------------------------------------------- *)

let add_resp t ~transport ?(port = 6379) ?(populate = 0) () =
  let first = ref None in
  let workers =
    Array.init t.n (fun i ->
        let w =
          Resp_store.serve ~transport ~clock:(clock_of t i) ~sched:(sched_of t i)
            ~stack:t.server_stacks.(i) ~alloc:t.allocs.(i) ~port ~core:i ?share_with:!first ()
        in
        if !first = None then first := Some w;
        w)
  in
  (* Pre-populate the shared database (key pattern matches
     Resp_store.client's) through worker 0 so GET workloads measure
     hits. *)
  for k = 0 to populate - 1 do
    ignore (Resp_store.execute workers.(0) [ "SET"; Printf.sprintf "key:%06d" k; "xxx" ])
  done;
  workers

(* --- line-protocol servers (inference, merkle store) ---------------------- *)

(* Per-core model serving: each server core gets its own virtio-blk
   store, weight file, vfs mount and admission queue (the replicated-
   image deployment — no cross-core weight sharing to serialize on). *)
let add_infer t ~transport ?(port = 8000) ?(size_mb = 4) ?max_batch ?max_wait_ns () =
  Array.init t.n (fun i ->
      let clock = clock_of t i in
      let engine = Uksmp.Smp.engine_of t.smp ~core:i in
      let dev =
        Ukblock.Virtio_blk.create ~clock ~engine
          ~capacity_sectors:((size_mb + 2) * 2048) ()
      in
      let store, name = Infer.publish ~clock ~dev ~size_mb () in
      let vfs = Ukvfs.Vfs.create ~clock in
      (match Ukvfs.Vfs.mount vfs ~at:"/models" (Ukvfs.Blockfs.to_fs store) with
      | Ok () -> ()
      | Error e -> invalid_arg ("Cluster.add_infer: " ^ Ukvfs.Fs.errno_to_string e));
      let model =
        match Infer.load ~clock ~vfs ~store ~path:("/models/" ^ name) () with
        | Ok m -> m
        | Error e -> invalid_arg ("Cluster.add_infer: " ^ e)
      in
      Infer.serve ~transport ~clock ~engine ~sched:(sched_of t i) ~stack:t.server_stacks.(i)
        ~alloc:t.allocs.(i) ~port ~core:i ?max_batch ?max_wait_ns ~model ())

(* Per-core store serving: each server core owns a virtio-blk device
   formatted as a ukstore, pre-populated and committed before the load
   starts (the fleet image's disk prep, replicated per core). *)
let add_store t ~transport ?(port = 7000) ?(keys = 256) ?(journal_sectors = 512) () =
  Array.init t.n (fun i ->
      let clock = clock_of t i in
      let engine = Uksmp.Smp.engine_of t.smp ~core:i in
      let dev = Ukblock.Virtio_blk.create ~clock ~engine ~capacity_sectors:32768 () in
      let store =
        match Ukstore.Store.format ~clock ~journal_sectors dev with
        | Ok s -> s
        | Error e -> invalid_arg ("Cluster.add_store: " ^ Ukvfs.Fs.errno_to_string e)
      in
      let srv =
        Store.serve ~transport ~clock ~sched:(sched_of t i) ~stack:t.server_stacks.(i) ~port
          ~core:i ~store ()
      in
      Store.populate srv keys;
      srv)
