module B = Blockdev

(* Guest-side descriptor work per request; host path is latency on the
   engine. *)
let guest_req_cost = 140
let kick_cost = Uksim.Cost.vm_exit
let irq_cost = Uksim.Cost.interrupt_delivery
let sector_size = 512

(* The medium is sparse: it is cut into chunks of [chunk_sectors]
   sectors, and a chunk is allocated on its first write, so a device
   holds what has been written to it, not its capacity. A sector never
   written reads as zeros. *)
let chunk_sectors = 64
let chunk_bytes = chunk_sectors * sector_size

type backing = { chunks : bytes array; capacity : int }

let mk_backing ~capacity_sectors =
  { chunks = Array.make ((capacity_sectors + chunk_sectors - 1) / chunk_sectors) Bytes.empty;
    capacity = capacity_sectors }

(* [f chunk offset pos len] for each chunk piece of the [n] medium bytes
   from byte [off]: [len] bytes at [offset] of chunk [chunk] are bytes
   [pos, pos + len) of the range. *)
let pieces ~off ~n f =
  let pos = ref 0 in
  while !pos < n do
    let a = off + !pos in
    let co = a mod chunk_bytes in
    let len = min (chunk_bytes - co) (n - !pos) in
    f (a / chunk_bytes) co !pos len;
    pos := !pos + len
  done

let do_request backing (req : B.request) : (bytes, B.error) result =
  match req with
  | B.Read { lba; sectors } ->
      if lba < 0 || sectors <= 0 || lba + sectors > backing.capacity then Error B.Ebounds
      else begin
        let out = Bytes.make (sectors * sector_size) '\000' in
        pieces ~off:(lba * sector_size) ~n:(Bytes.length out) (fun ci co pos len ->
            let chunk = backing.chunks.(ci) in
            if Bytes.length chunk > 0 then Bytes.blit chunk co out pos len);
        Ok out
      end
  | B.Write { lba; data } ->
      let n = Bytes.length data in
      if
        lba < 0 || n = 0
        || n mod sector_size <> 0
        || lba + (n / sector_size) > backing.capacity
      then Error B.Ebounds
      else begin
        pieces ~off:(lba * sector_size) ~n (fun ci co pos len ->
            if Bytes.length backing.chunks.(ci) = 0 then
              backing.chunks.(ci) <- Bytes.make chunk_bytes '\000';
            Bytes.blit data pos backing.chunks.(ci) co len);
        Ok Bytes.empty
      end

let sectors_of = function
  | B.Read { sectors; _ } -> sectors
  | B.Write { data; _ } -> Bytes.length data / sector_size

module C = Uktrace.Metric.Counter

(* The device's "ukblock.<name>" group, bumped once per completed
   request. *)
type counters = {
  group : Uktrace.Registry.group;
  reads : C.t;
  writes : C.t;
  sectors_read : C.t;
  sectors_written : C.t;
}

let counters name =
  let group = Uktrace.Registry.group ~subsystem:"ukblock" name in
  let reads = Uktrace.Registry.counter group "reads" in
  let writes = Uktrace.Registry.counter group "writes" in
  let sectors_read = Uktrace.Registry.counter group "sectors_read" in
  let sectors_written = Uktrace.Registry.counter group "sectors_written" in
  { group; reads; writes; sectors_read; sectors_written }

(* Run [req] against the backing store, counting it if it succeeds. *)
let complete_on backing c req =
  let result = do_request backing req in
  (if Result.is_ok result then
     let n = sectors_of req in
     match req with
     | B.Read _ ->
         C.incr c.reads;
         C.add c.sectors_read n
     | B.Write _ ->
         C.incr c.writes;
         C.add c.sectors_written n);
  result

let create ~clock ~engine ?(capacity_sectors = 131072) ?(queue_depth = 128)
    ?(host_latency_ns = 20_000.0) () =
  let backing = mk_backing ~capacity_sectors in
  let inflight = ref 0 in
  let done_q : B.completion Queue.t = Queue.create () in
  let handler = ref None in
  let counted = counters "virtio-blk" in
  let charge c = Uksim.Clock.advance clock c in
  let complete req =
    let result = complete_on backing counted req in
    let was_idle = Queue.is_empty done_q in
    Queue.push { B.req; result } done_q;
    decr inflight;
    if was_idle then
      match !handler with
      | Some f ->
          charge irq_cost;
          f ()
      | None -> ()
  in
  let submit reqs =
    let room = queue_depth - !inflight in
    let n = min room (Array.length reqs) in
    if n > 0 then begin
      for i = 0 to n - 1 do
        charge guest_req_cost;
        let req = reqs.(i) in
        incr inflight;
        (* Host path: latency plus per-sector transfer time. *)
        let latency =
          Uksim.Clock.cycles_of_ns host_latency_ns
          + Uksim.Cost.memcpy (sectors_of req * sector_size)
        in
        Uksim.Engine.after engine latency (fun () -> complete req)
      done;
      charge kick_cost
    end;
    n
  in
  let poll_completions ~max:max_c =
    Uksim.Engine.run ~until:(Uksim.Clock.cycles clock) engine;
    let rec take acc k =
      if k >= max_c then List.rev acc
      else
        match Queue.take_opt done_q with
        | Some c -> take (c :: acc) (k + 1)
        | None -> List.rev acc
    in
    take [] 0
  in
  (* Take [req]'s own completion out of the queue, leaving every other
     one (a [submit]ted request's) for [poll_completions]. *)
  let take_own req =
    let mine = ref None and rest = Queue.create () in
    Queue.iter
      (fun (c : B.completion) ->
        if !mine = None && c.B.req == req then mine := Some c else Queue.push c rest)
      done_q;
    Queue.clear done_q;
    Queue.transfer rest done_q;
    !mine
  in
  let wait_for req =
    (* Synchronous convenience: spin virtual time until [req] completes. *)
    let rec go () =
      Uksim.Engine.run ~until:(Uksim.Clock.cycles clock) engine;
      match take_own req with
      | Some c -> c.B.result
      | None ->
          Uksim.Clock.advance clock 500;
          go ()
    in
    go ()
  in
  let sync req = if submit [| req |] = 0 then Error B.Equeue_full else wait_for req in
  let read_sync ~lba ~sectors = sync (B.Read { lba; sectors }) in
  let write_sync ~lba data =
    match sync (B.Write { lba; data }) with Ok _ -> Ok () | Error e -> Error e
  in
  {
    B.name = "virtio-blk";
    sector_size;
    capacity_sectors;
    submit;
    poll_completions;
    pending = (fun () -> !inflight);
    set_completion_handler = (fun f -> handler := f);
    read_sync;
    write_sync;
    flush = (fun () -> Uksim.Engine.run ~until:(Uksim.Clock.cycles clock) engine);
    source = Uktrace.Registry.source counted.group;
  }

let create_ramdisk ~clock ?(capacity_sectors = 131072) () =
  let backing = mk_backing ~capacity_sectors in
  let done_q : B.completion Queue.t = Queue.create () in
  let counted = counters "ramdisk" in
  let run req =
    Uksim.Clock.advance clock (40 + Uksim.Cost.memcpy (sectors_of req * sector_size));
    complete_on backing counted req
  in
  let submit reqs =
    Array.iter (fun req -> Queue.push { B.req; result = run req } done_q) reqs;
    Array.length reqs
  in
  let poll_completions ~max:max_c =
    let rec take acc k =
      if k >= max_c then List.rev acc
      else
        match Queue.take_opt done_q with
        | Some c -> take (c :: acc) (k + 1)
        | None -> List.rev acc
    in
    take [] 0
  in
  {
    B.name = "ramdisk";
    sector_size;
    capacity_sectors;
    submit;
    poll_completions;
    pending = (fun () -> 0);
    set_completion_handler = (fun _ -> ());
    read_sync = (fun ~lba ~sectors -> run (B.Read { lba; sectors }));
    write_sync =
      (fun ~lba data -> match run (B.Write { lba; data }) with Ok _ -> Ok () | Error e -> Error e);
    flush = (fun () -> ());
    source = Uktrace.Registry.source counted.group;
  }
