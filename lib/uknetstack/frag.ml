let max_datagram = 65535

type verdict =
  | Complete of bytes
  | Pending
  | Rejected of string

type datagram = {
  started_ns : float;
  mutable chunks : (int * bytes) list; (* offset -> payload, sorted by offset *)
  mutable total : int option; (* known once the MF=0 tail arrives *)
}

type t = {
  clock : Uksim.Clock.t;
  timeout_ns : float;
  table : (int * int * int, datagram) Hashtbl.t; (* (src, id, proto) *)
  mutable n_completed : int;
  mutable n_expired : int;
}

(* RFC 791's resource bound on datagrams in reassembly. *)
let max_datagrams = 64

let create ~clock ?(timeout_ns = 1e9) () =
  { clock; timeout_ns; table = Hashtbl.create 16; n_completed = 0; n_expired = 0 }

(* Insert a chunk, keeping the list offset-sorted; reject inconsistent
   overlaps (same offset, different length — a teardrop-style signal). *)
let add_chunk d ~off payload =
  let rec go = function
    | [] -> Ok [ (off, payload) ]
    | ((o, p) :: rest) as l ->
        if off < o then Ok ((off, payload) :: l)
        else if off = o then
          if Bytes.length p = Bytes.length payload then Ok l (* duplicate *)
          else Error "inconsistent overlap"
        else ( match go rest with Ok r -> Ok ((o, p) :: r) | Error e -> Error e)
  in
  match go d.chunks with
  | Ok chunks ->
      d.chunks <- chunks;
      Ok ()
  | Error e -> Error e

(* Do the sorted chunks cover [0, total) without gaps? *)
let coverage d =
  match d.total with
  | None -> None
  | Some total ->
      let rec go pos = function
        | [] -> if pos >= total then Some total else None
        | (o, p) :: rest ->
            if o > pos then None (* gap *)
            else go (max pos (o + Bytes.length p)) rest
      in
      go 0 d.chunks

let assemble d total =
  let out = Bytes.create total in
  List.iter
    (fun (o, p) ->
      let n = min (Bytes.length p) (total - o) in
      if n > 0 then Bytes.blit p 0 out o n)
    d.chunks;
  out

let evict_oldest t =
  let oldest = ref None in
  Hashtbl.iter
    (fun key d ->
      match !oldest with
      | Some (_, od) when od.started_ns <= d.started_ns -> ()
      | _ -> oldest := Some (key, d))
    t.table;
  match !oldest with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.n_expired <- t.n_expired + 1
  | None -> ()

let insert t ~src ~id ~proto ~frag_offset ~more_frags payload =
  let key = (Addr.Ipv4.to_int src, id, proto) in
  (* The size check comes before the table entry, so a fragment rejected
     for its size never evicts another datagram. *)
  if frag_offset + Bytes.length payload > max_datagram then begin
    Hashtbl.remove t.table key;
    Rejected "datagram exceeds 64KB"
  end
  else begin
    let d =
      match Hashtbl.find_opt t.table key with
      | Some d -> d
      | None ->
          if Hashtbl.length t.table >= max_datagrams then evict_oldest t;
          let d = { started_ns = Uksim.Clock.ns t.clock; chunks = []; total = None } in
          Hashtbl.replace t.table key d;
          d
    in
    (if not more_frags then
       match d.total with
       | Some existing when existing <> frag_offset + Bytes.length payload ->
           (* Two different tails: drop the datagram. *)
           d.total <- Some (-1)
       | Some _ | None -> d.total <- Some (frag_offset + Bytes.length payload));
    if d.total = Some (-1) then begin
      Hashtbl.remove t.table key;
      Rejected "conflicting tail fragments"
    end
    else
      match add_chunk d ~off:frag_offset payload with
      | Error e ->
          Hashtbl.remove t.table key;
          Rejected e
      | Ok () -> (
          match coverage d with
          | Some total ->
              Hashtbl.remove t.table key;
              t.n_completed <- t.n_completed + 1;
              Complete (assemble d total)
          | None -> Pending)
  end

let expire t =
  if Hashtbl.length t.table > 0 then begin
    let now = Uksim.Clock.ns t.clock in
    let stale =
      Hashtbl.fold
        (fun key d acc -> if now -. d.started_ns > t.timeout_ns then key :: acc else acc)
        t.table []
    in
    List.iter
      (fun key ->
        Hashtbl.remove t.table key;
        t.n_expired <- t.n_expired + 1)
      stale
  end

let pending_datagrams t = Hashtbl.length t.table
let completed t = t.n_completed
let expired t = t.n_expired
