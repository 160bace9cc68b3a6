type plan = {
  drop : float;
  drop_every : int;
  duplicate : float;
  corrupt : float;
  reorder : float;
  reorder_delay_ns : float;
  flap_period_ns : float;
  flap_down_ns : float;
}

let plan ?(drop = 0.0) ?(drop_every = 0) ?(duplicate = 0.0) ?(corrupt = 0.0) ?(reorder = 0.0)
    ?(reorder_delay_ns = 50_000.0) ?(flap_period_ns = 0.0) ?(flap_down_ns = 0.0) () =
  if drop < 0.0 || drop > 1.0 then invalid_arg "Faultnet.plan: drop not in [0,1]";
  if drop_every < 0 then invalid_arg "Faultnet.plan: negative drop_every";
  { drop; drop_every; duplicate; corrupt; reorder; reorder_delay_ns; flap_period_ns;
    flap_down_ns }

module C = Uktrace.Metric.Counter

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  rng : Uksim.Rng.t;
  p : plan;
  inner : Uknetdev.Netdev.t;
  mutable passed : int; (* frames not randomly dropped, drives drop_every *)
  mutable wrapped : Uknetdev.Netdev.t option;
  group : Uktrace.Registry.group;
  forwarded : C.t;
  dropped : C.t;
  refused : C.t;
  duplicated : C.t;
  corrupted : C.t;
  reordered : C.t;
  flap_dropped : C.t;
}

let link_up t =
  t.p.flap_period_ns <= 0.0 || t.p.flap_down_ns <= 0.0
  || Float.rem (Uksim.Clock.ns t.clock) t.p.flap_period_ns
     < t.p.flap_period_ns -. t.p.flap_down_ns

let copy_frame nb = Uknetdev.Netbuf.copy nb

(* Flip one bit of a non-empty frame; true when it did. *)
let flip_bit t nb aux =
  let data = Uknetdev.Netbuf.data nb in
  let len = Uknetdev.Netbuf.len nb in
  if len = 0 then false
  else begin
    let bit = aux mod (len * 8) in
    let i = Uknetdev.Netbuf.offset nb + (bit / 8) in
    Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor (1 lsl (bit mod 8))));
    C.incr t.corrupted;
    true
  end

(* Hand [frames], each with whether a bit of it was flipped, to the
   wrapped device. Each unharmed frame the device accepts counts as
   forwarded; a corrupted one counts as corrupted only. The injector
   owns what it offers, so a frame the device refuses (no ring room) is
   recycled here: the caller was told it was taken. *)
let forward t ~qid frames =
  let accepted = t.inner.Uknetdev.Netdev.tx_burst ~qid (Array.map fst frames) in
  Array.iteri
    (fun i (nb, harmed) ->
      if i >= accepted then begin
        C.incr t.refused;
        Uknetdev.Netbuf.recycle nb
      end
      else if not harmed then C.incr t.forwarded)
    frames

(* The fate of one frame: [None] = consumed by the injector (dropped or
   held back for delayed redelivery), [Some (nb, harmed)] = forward now,
   [harmed] when a bit was flipped. Exactly five Rng draws per frame,
   whatever happens, so the random stream stays aligned across plans
   that differ only in rates. *)
let judge t ~qid nb =
  let u_drop = Uksim.Rng.float t.rng 1.0 in
  let u_dup = Uksim.Rng.float t.rng 1.0 in
  let u_corrupt = Uksim.Rng.float t.rng 1.0 in
  let u_reorder = Uksim.Rng.float t.rng 1.0 in
  let aux = Uksim.Rng.int t.rng max_int in
  if not (link_up t) then begin
    C.incr t.flap_dropped;
    Uknetdev.Netbuf.recycle nb;
    None
  end
  else if u_drop < t.p.drop then begin
    C.incr t.dropped;
    Uknetdev.Netbuf.recycle nb;
    None
  end
  else begin
    t.passed <- t.passed + 1;
    if t.p.drop_every > 0 && t.passed mod t.p.drop_every = 0 then begin
      C.incr t.dropped;
      Uknetdev.Netbuf.recycle nb;
      None
    end
    else begin
      let dup = if u_dup < t.p.duplicate then Some (copy_frame nb) else None in
      let nb, harmed =
        if u_corrupt < t.p.corrupt then begin
          (* Copy-on-write: the sender may retain a descriptor onto this
             storage (the zero-copy retransmit source) — corrupt a private
             duplicate, never the shared cell. *)
          let c = copy_frame nb in
          Uknetdev.Netbuf.recycle nb;
          (c, flip_bit t c aux)
        end
        else (nb, false)
      in
      (match dup with
      | Some d ->
          C.incr t.duplicated;
          forward t ~qid [| (d, false) |]
      | None -> ());
      if u_reorder < t.p.reorder then begin
        C.incr t.reordered;
        Uksim.Engine.after_ns t.engine t.p.reorder_delay_ns (fun () ->
            forward t ~qid [| (nb, harmed) |]);
        None
      end
      else Some (nb, harmed)
    end
  end

let tx_burst t ~qid pkts =
  let offered = Array.length pkts in
  let survivors =
    Array.to_list pkts |> List.filter_map (fun nb -> judge t ~qid nb) |> Array.of_list
  in
  if Array.length survivors > 0 then forward t ~qid survivors;
  offered

let wrap ~clock ~engine ~rng ~plan:p inner =
  let group = Uktrace.Registry.group ~subsystem:"ukfault" "net" in
  let c = Uktrace.Registry.counter group in
  let forwarded = c "forwarded" in
  let dropped = c "dropped" in
  let refused = c "refused" in
  let duplicated = c "duplicated" in
  let corrupted = c "corrupted" in
  let reordered = c "reordered" in
  let flap_dropped = c "flap_dropped" in
  let t =
    { clock; engine; rng; p; inner; passed = 0; wrapped = None; group; forwarded; dropped;
      refused; duplicated; corrupted; reordered; flap_dropped }
  in
  let dev =
    { inner with
      Uknetdev.Netdev.name = inner.Uknetdev.Netdev.name ^ "+fault";
      tx_burst = (fun ~qid pkts -> tx_burst t ~qid pkts) }
  in
  t.wrapped <- Some dev;
  t

let dev t = match t.wrapped with Some d -> d | None -> assert false
let source t = Uktrace.Registry.source t.group
