module B = Ukblock.Blockdev
module C = Uktrace.Metric.Counter

type plan = {
  io_error : float;
  torn_write : float;
  latency_spike : float;
  spike_ns : float;
}

let plan ?(io_error = 0.0) ?(torn_write = 0.0) ?(latency_spike = 0.0) ?(spike_ns = 2.0e6) () =
  { io_error; torn_write; latency_spike; spike_ns }

(* Per-request verdict; like Faultnet, a fixed number of Rng draws per
   request keeps the stream aligned across plans. *)
type verdict = Pass | Fail_io | Tear

type t = {
  clock : Uksim.Clock.t;
  rng : Uksim.Rng.t;
  p : plan;
  inner : B.t;
  synthetic : B.completion Queue.t;
  group : Uktrace.Registry.group;
  forwarded : C.t;
  io_errors : C.t;
  torn_writes : C.t;
  latency_spikes : C.t;
  crash_stops : C.t;
  mutable wrapped : B.t option;
  (* Deterministic stop-the-device crash mode: a countdown in *sectors*
     written. When the budget runs out mid-write the prefix persists
     (the torn write) and the device goes dead — every subsequent
     request fails with Eio, like a machine that lost power. Counting
     sectors rather than requests lets a crash matrix enumerate every
     sector boundary of a multi-sector journal record under one seed. *)
  mutable crash_budget : int option;
  mutable dead : bool;
}

let judge t ~is_write =
  let u_err = Uksim.Rng.float t.rng 1.0 in
  let u_torn = Uksim.Rng.float t.rng 1.0 in
  let u_spike = Uksim.Rng.float t.rng 1.0 in
  if u_spike < t.p.latency_spike then begin
    C.incr t.latency_spikes;
    Uksim.Clock.advance_ns t.clock t.p.spike_ns
  end;
  if u_err < t.p.io_error then begin
    C.incr t.io_errors;
    Fail_io
  end
  else if is_write && u_torn < t.p.torn_write then begin
    C.incr t.torn_writes;
    C.incr t.io_errors;
    Tear
  end
  else begin
    C.incr t.forwarded;
    Pass
  end

(* Persist the first half of a torn write's sectors, then fail it. *)
let tear t ~lba data =
  let ss = t.inner.B.sector_size in
  let sectors = Bytes.length data / ss in
  let prefix = sectors / 2 in
  if prefix > 0 then ignore (t.inner.B.write_sync ~lba (Bytes.sub data 0 (prefix * ss)))

(* Charge a write of [sectors] against the crash budget. Returns how many
   of its sectors persist; on partial persistence the device dies. *)
let crash_take t ~sectors =
  match t.crash_budget with
  | None -> sectors
  | Some budget ->
      if budget >= sectors then begin
        t.crash_budget <- Some (budget - sectors);
        sectors
      end
      else begin
        t.crash_budget <- Some 0;
        t.dead <- true;
        C.incr t.crash_stops;
        budget
      end

let wrap ~clock ~rng ~plan:p inner =
  let group = Uktrace.Registry.group ~subsystem:"ukfault" "blk" in
  let c = Uktrace.Registry.counter group in
  let forwarded = c "forwarded" in
  let io_errors = c "io_errors" in
  let torn_writes = c "torn_writes" in
  let latency_spikes = c "latency_spikes" in
  let crash_stops = c "crash_stops" in
  let t =
    { clock; rng; p; inner; synthetic = Queue.create (); group; forwarded; io_errors;
      torn_writes; latency_spikes; crash_stops; wrapped = None; crash_budget = None;
      dead = false }
  in
  (* A completion decided here (an injected failure, a crash-mode write)
     is queued at once. *)
  let synthesize req result = Queue.push { B.req; result } t.synthetic in
  (* Crash-mode write: persist whatever prefix the budget allows, fail
     the rest. [Ok] when the whole write fit the budget. *)
  let crash_write ~lba data =
    let ss = t.inner.B.sector_size in
    let sectors = (Bytes.length data + ss - 1) / ss in
    let keep = crash_take t ~sectors in
    if keep >= sectors then t.inner.B.write_sync ~lba data
    else begin
      if keep > 0 then ignore (t.inner.B.write_sync ~lba (Bytes.sub data 0 (keep * ss)));
      Error B.Eio
    end
  in
  let submit reqs =
    let accepted = ref 0 in
    (try
       Array.iter
         (fun req ->
           if t.dead then begin
             synthesize req (Error B.Eio);
             incr accepted
           end
           else
             let is_write = match req with B.Write _ -> true | B.Read _ -> false in
             match judge t ~is_write with
             | Pass when is_write && t.crash_budget <> None ->
                 (match req with
                 | B.Write { lba; data } ->
                     synthesize req
                       (Result.map (fun () -> Bytes.empty) (crash_write ~lba data));
                     incr accepted
                 | B.Read _ -> assert false)
             | Pass ->
                 if t.inner.B.submit [| req |] = 1 then incr accepted
                 else raise Exit (* inner queue full: stop accepting *)
             | Fail_io ->
                 synthesize req (Error B.Eio);
                 incr accepted
             | Tear ->
                 (match req with B.Write { lba; data } -> tear t ~lba data | B.Read _ -> ());
                 synthesize req (Error B.Eio);
                 incr accepted)
         reqs
     with Exit -> ());
    !accepted
  in
  let poll_completions ~max =
    let rec take acc n =
      if n >= max then List.rev acc
      else
        match Queue.take_opt t.synthetic with
        | Some c -> take (c :: acc) (n + 1)
        | None -> List.rev acc @ t.inner.B.poll_completions ~max:(max - n)
    in
    take [] 0
  in
  let read_sync ~lba ~sectors =
    if t.dead then Error B.Eio
    else
      match judge t ~is_write:false with
      | Fail_io | Tear -> Error B.Eio
      | Pass -> t.inner.B.read_sync ~lba ~sectors
  in
  let write_sync ~lba data =
    if t.dead then Error B.Eio
    else
      match judge t ~is_write:true with
      | Fail_io -> Error B.Eio
      | Tear ->
          tear t ~lba data;
          Error B.Eio
      | Pass ->
          if t.crash_budget = None then t.inner.B.write_sync ~lba data
          else crash_write ~lba data
  in
  let dev =
    { inner with
      B.name = inner.B.name ^ "+fault";
      submit;
      poll_completions;
      pending = (fun () -> Queue.length t.synthetic + inner.B.pending ());
      read_sync;
      write_sync }
  in
  t.wrapped <- Some dev;
  t

let dev t = match t.wrapped with Some d -> d | None -> assert false
let source t = Uktrace.Registry.source t.group

(* --- deterministic crash injection ---------------------------------------- *)

let crash_after_writes t n =
  if n < 0 then invalid_arg "Faultblk.crash_after_writes: negative budget";
  (* Budget 0 means "die at the first write, persisting nothing" — reads
     keep working until a write trips the countdown. *)
  t.crash_budget <- Some n;
  t.dead <- false

let crashed t = t.dead

let revive t =
  t.crash_budget <- None;
  t.dead <- false
