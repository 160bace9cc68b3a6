type key = int

type rights = No_access | Read_only | Read_write

exception Protection_fault of { addr : int; key : int; write : bool }

let page = 4096
let n_keys = 16
let wrpkru_cost = 23
let check_cost = 2 (* the PKRU check is done by the MMU in parallel *)

type t = {
  clock : Uksim.Clock.t;
  names : string option array; (* allocated keys *)
  pages : (int, key) Hashtbl.t; (* page number -> key *)
  pkru : rights array;
  mutable fault_count : int;
}

let default_key = 0

let create ~clock =
  let t =
    {
      clock;
      names = Array.make n_keys None;
      pages = Hashtbl.create 256;
      pkru = Array.make n_keys Read_write;
      fault_count = 0;
    }
  in
  t.names.(0) <- Some "default";
  t

let alloc_key t ?name () =
  let rec find i =
    if i >= n_keys then Error "no free protection keys (hardware has 16)"
    else if t.names.(i) = None then begin
      t.names.(i) <- Some (Option.value name ~default:(Printf.sprintf "pkey%d" i));
      (* Fresh keys start inaccessible, as pkey_alloc with access rights
         would configure. *)
      t.pkru.(i) <- No_access;
      Ok i
    end
    else find (i + 1)
  in
  find 1

let key_name t k =
  match t.names.(k) with Some n -> n | None -> "(unallocated)"

let free_key t k =
  if k = 0 then invalid_arg "Mpk.free_key: cannot free the default key";
  t.names.(k) <- None;
  t.pkru.(k) <- Read_write;
  Hashtbl.iter
    (fun pg key -> if key = k then Hashtbl.replace t.pages pg default_key)
    (Hashtbl.copy t.pages)

let bind_range t k ~base ~len =
  if len <= 0 || base < 0 then invalid_arg "Mpk.bind_range: bad range";
  if t.names.(k) = None then invalid_arg "Mpk.bind_range: unallocated key";
  let first = base / page and last = (base + len - 1) / page in
  for pg = first to last do
    match Hashtbl.find_opt t.pages pg with
    | Some existing when existing <> k && existing <> default_key ->
        invalid_arg
          (Printf.sprintf "Mpk.bind_range: page %#x already bound to key %d" (pg * page)
             existing)
    | Some _ | None -> ()
  done;
  for pg = first to last do
    Hashtbl.replace t.pages pg k
  done

let key_of_addr t addr =
  match Hashtbl.find_opt t.pages (addr / page) with Some k -> k | None -> default_key

let set_rights t k r =
  Uksim.Clock.advance t.clock wrpkru_cost;
  t.pkru.(k) <- r

let check ~write t addr =
  Uksim.Clock.advance t.clock check_cost;
  let k = key_of_addr t addr in
  let ok =
    match t.pkru.(k) with
    | Read_write -> true
    | Read_only -> not write
    | No_access -> false
  in
  if not ok then begin
    t.fault_count <- t.fault_count + 1;
    raise (Protection_fault { addr; key = k; write })
  end

let check_read t addr = check ~write:false t addr
let check_write t addr = check ~write:true t addr

let load t addr =
  check_read t addr;
  Uksim.Clock.advance t.clock Uksim.Cost.cache_hit

let store t addr =
  check_write t addr;
  Uksim.Clock.advance t.clock Uksim.Cost.cache_hit

module Gate = struct
  type mpk = t

  type t = { mpk : mpk; target : key; mutable count : int }

  let create mpk ~target_key = { mpk; target = target_key; count = 0 }

  let enter g f =
    let saved_target = g.mpk.pkru.(g.target) in
    let saved_default = g.mpk.pkru.(default_key) in
    g.count <- g.count + 1;
    (* Two WRPKRU writes in, two out — the measured gate cost of the
       MPK-isolation papers. *)
    set_rights g.mpk g.target Read_write;
    set_rights g.mpk default_key Read_only;
    let restore () =
      set_rights g.mpk g.target saved_target;
      set_rights g.mpk default_key saved_default
    in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        restore ();
        raise e

  let crossings g = g.count
end

let faults t = t.fault_count
