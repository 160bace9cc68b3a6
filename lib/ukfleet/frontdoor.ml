type policy = Round_robin | Least_loaded | Consistent_hash

type t = {
  pol : policy;
  vnodes : int;
  mutable members : int list; (* ascending *)
  mutable cursor : int; (* round-robin position, indexes members *)
  mutable ring : (int * int) array; (* (point, member), sorted by point *)
  quarantined : (int, unit) Hashtbl.t; (* excluded from pick, ring spot kept *)
}

(* The ring placement and flow hashes: stable across runs by
   construction. *)
let mix = Uksim.Rng.avalanche

let create ?(vnodes = 32) pol =
  if vnodes <= 0 then invalid_arg "Frontdoor.create: vnodes must be positive";
  { pol; vnodes; members = []; cursor = 0; ring = [||]; quarantined = Hashtbl.create 8 }

let members t = t.members
let quarantined t m = Hashtbl.mem t.quarantined m
let active t = List.filter (fun m -> not (quarantined t m)) t.members
let quarantine t m = if List.mem m t.members then Hashtbl.replace t.quarantined m ()
let unquarantine t m = Hashtbl.remove t.quarantined m

let rebuild_ring t =
  let pts =
    List.concat_map
      (fun m -> List.init t.vnodes (fun v -> (mix ((m * 8191) + v), m)))
      t.members
  in
  let a = Array.of_list pts in
  Array.sort compare a;
  t.ring <- a

let add t m =
  if not (List.mem m t.members) then begin
    t.members <- List.sort compare (m :: t.members);
    if t.pol = Consistent_hash then rebuild_ring t
  end

let remove t m =
  if List.mem m t.members then begin
    t.members <- List.filter (fun x -> x <> m) t.members;
    Hashtbl.remove t.quarantined m;
    if t.cursor >= List.length t.members then t.cursor <- 0;
    if t.pol = Consistent_hash then rebuild_ring t
  end

let pick_rr t =
  match active t with
  | [] -> None
  | ms ->
      let n = List.length ms in
      let i = t.cursor mod n in
      t.cursor <- i + 1;
      Some (List.nth ms i)

let pick_least t ~load =
  match active t with
  | [] -> None
  | m :: ms ->
      Some
        (fst
           (List.fold_left
              (fun (bm, bl) m ->
                let l = load m in
                if l < bl then (m, l) else (bm, bl))
              (m, load m) ms))

let pick_hash t ~flow =
  let n = Array.length t.ring in
  if n = 0 || Hashtbl.length t.quarantined >= List.length t.members then None
  else begin
    let h = mix flow in
    (* successor of h on the ring (wrapping) *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    (* Quarantined members keep their ring points but are skipped: the
       flow lands on the next live successor, and comes back to the
       exact same member on unquarantine — no arc remapping. *)
    let rec scan i left =
      if left = 0 then None
      else
        let m = snd t.ring.(i mod n) in
        if quarantined t m then scan (i + 1) (left - 1)
        else Some m
    in
    scan !lo n
  end

let pick t ~flow ~load =
  match t.pol with
  | Round_robin -> pick_rr t
  | Least_loaded -> pick_least t ~load
  | Consistent_hash -> pick_hash t ~flow
