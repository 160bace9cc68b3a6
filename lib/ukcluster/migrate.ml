type reason = Dst_down | Src_down | Partitioned

(* Pre-copy rounds before stop-and-copy is forced, and the dirty residue
   small enough to copy with the guest paused. *)
let max_rounds = 8
let stop_copy_bytes = 64 * 1024

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  net : Netmodel.t;
  src : int;
  dst : int;
  src_up : unit -> bool;
  dst_up : unit -> bool;
  dirty_bps : unit -> float;
  on_drain : now_ns:float -> bool -> unit;
  on_commit : now_ns:float -> pause_ns:float -> unit;
  on_abort : now_ns:float -> reason -> unit;
  mutable draining : bool;
}

let at_abs t ns f =
  Uksim.Engine.at t.engine
    (max (Uksim.Clock.cycles_of_ns ns) (Uksim.Clock.cycles t.clock))
    f

let abort t ~now reason =
  if t.draining then begin
    t.draining <- false;
    t.on_drain ~now_ns:now false
  end;
  t.on_abort ~now_ns:now reason

(* One copy pays both the wire (latency + bytes/bandwidth over the
   inter-host link) and the memcpy on the source, per the calibrated
   cost model. *)
let copy_ns t ~bytes =
  match Netmodel.transfer_ns t.net ~src:t.src ~dst:t.dst ~bytes with
  | None -> None
  | Some wire -> Some (wire +. Uksim.Clock.ns_of_cycles (Uksim.Cost.memcpy bytes))

let healthy t ~now reason_if_net =
  if not (t.dst_up ()) then (abort t ~now Dst_down; false)
  else if not (t.src_up ()) then (abort t ~now Src_down; false)
  else if
    not
      (Netmodel.reachable t.net ~src:t.src ~dst:t.dst
      && Netmodel.reachable t.net ~src:t.dst ~dst:t.src)
  then (abort t ~now reason_if_net; false)
  else true

let stop_copy t ~now ~bytes =
  (* Front-door draining around the blackout: the router diverts the
     shard while the VM is paused, so requests queue elsewhere instead
     of dying against a stopped guest. *)
  t.draining <- true;
  t.on_drain ~now_ns:now true;
  let bytes = max bytes 4096 in
  match copy_ns t ~bytes with
  | None -> abort t ~now Partitioned
  | Some dur ->
      at_abs t (now +. dur) (fun () ->
          let now = now +. dur in
          (* The destination must still be alive and mutually reachable
             at handover, or the whole migration unwinds. *)
          if healthy t ~now Partitioned then begin
            t.draining <- false;
            t.on_drain ~now_ns:now false;
            t.on_commit ~now_ns:now ~pause_ns:dur
          end)

let rec round t ~now ~bytes ~n =
  if healthy t ~now Partitioned then begin
    match copy_ns t ~bytes with
    | None -> abort t ~now Partitioned
    | Some dur ->
        at_abs t (now +. dur) (fun () ->
            let now = now +. dur in
            if healthy t ~now Partitioned then begin
              (* The guest kept running during the copy; what it dirtied
                 is the next round's payload. *)
              let dirtied =
                int_of_float (t.dirty_bps () *. dur /. 1e9)
              in
              if dirtied <= stop_copy_bytes || n + 1 >= max_rounds then
                stop_copy t ~now ~bytes:dirtied
              else round t ~now ~bytes:dirtied ~n:(n + 1)
            end)
  end

let start ~clock ~engine ~net ~src ~dst ~src_up ~dst_up ~footprint_bytes ~dirty_bps
    ~on_drain ~on_commit ~on_abort ~at_ns =
  if src = dst then invalid_arg "Migrate.start: src = dst";
  if footprint_bytes < 1 then invalid_arg "Migrate.start: empty footprint";
  let t =
    {
      clock;
      engine;
      net;
      src;
      dst;
      src_up;
      dst_up;
      dirty_bps;
      on_drain;
      on_commit;
      on_abort;
      draining = false;
    }
  in
  at_abs t at_ns (fun () ->
      round t ~now:(Float.max at_ns (Uksim.Clock.ns clock)) ~bytes:footprint_bytes ~n:0)
