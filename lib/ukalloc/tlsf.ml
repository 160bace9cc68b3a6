(* Faithful port of the canonical TLSF structure:
   - first level: power-of-two ranges, [fl_shift]-based
   - second level: [sl_count] linear subdivisions per range
   - block headers with physical-neighbour links for O(1) coalescing. *)

let sl_count_log2 = 4
let sl_count = 1 lsl sl_count_log2 (* 16 *)
let fl_shift = 8 (* sizes below 2^8 map linearly into fl = 0 *)
let small_block = 1 lsl fl_shift
let fl_count = 40
let overhead = 16 (* per-block header bytes *)
let min_payload = 16
let min_block = overhead + min_payload

(* Cycle costs per structural step (O(1) paths). *)
let base_cost = 20
let mapping_cost = 5
let split_cost = 22
let merge_cost = 22
let init_cost = 2200

type block = {
  addr : int;
  mutable size : int; (* whole block, header included *)
  mutable free : bool;
  mutable prev_phys : block option;
  mutable next_phys : block option;
  mutable prev_free : block option;
  mutable next_free : block option;
  mutable payload : int; (* live payload bytes while allocated *)
}

type state = {
  clock : Uksim.Clock.t;
  heads : block option array array; (* fl x sl *)
  mutable fl_bitmap : int;
  sl_bitmap : int array;
  by_payload_addr : (int, block) Hashtbl.t; (* payload addr -> block *)
  mutable free_bytes : int;
  counts : Alloc.Counts.t;
  mutable n_blocks : int;
}

let charge t c = Uksim.Clock.advance t.clock c

let fls n = if n <= 0 then -1 else Alloc.log2_floor n

(* (fl, sl) of a block of [size] for insertion. *)
let mapping_insert size =
  if size < small_block then (0, size / (small_block / sl_count))
  else begin
    let f = fls size in
    let sl = (size lsr (f - sl_count_log2)) lxor sl_count in
    (f - fl_shift + 1, sl)
  end

(* (fl, sl) for searching: round the request up so any block in the class
   fits. *)
let mapping_search size =
  if size < small_block then mapping_insert size
  else begin
    let round = (1 lsl (fls size - sl_count_log2)) - 1 in
    mapping_insert (size + round)
  end

let insert_block t b =
  charge t mapping_cost;
  let fl, sl = mapping_insert b.size in
  let head = t.heads.(fl).(sl) in
  b.prev_free <- None;
  b.next_free <- head;
  (match head with Some h -> h.prev_free <- Some b | None -> ());
  t.heads.(fl).(sl) <- Some b;
  b.free <- true;
  t.free_bytes <- t.free_bytes + b.size;
  t.fl_bitmap <- t.fl_bitmap lor (1 lsl fl);
  t.sl_bitmap.(fl) <- t.sl_bitmap.(fl) lor (1 lsl sl)

let remove_block t b =
  charge t mapping_cost;
  let fl, sl = mapping_insert b.size in
  (match b.prev_free with
  | Some p -> p.next_free <- b.next_free
  | None -> t.heads.(fl).(sl) <- b.next_free);
  (match b.next_free with Some n -> n.prev_free <- b.prev_free | None -> ());
  b.prev_free <- None;
  b.next_free <- None;
  b.free <- false;
  t.free_bytes <- t.free_bytes - b.size;
  if t.heads.(fl).(sl) = None then begin
    t.sl_bitmap.(fl) <- t.sl_bitmap.(fl) land lnot (1 lsl sl);
    if t.sl_bitmap.(fl) = 0 then t.fl_bitmap <- t.fl_bitmap land lnot (1 lsl fl)
  end

let ffs_from word from =
  let masked = word land lnot ((1 lsl from) - 1) in
  if masked = 0 then None else Some (fls (masked land -masked))

let search_suitable t size =
  let fl, sl = mapping_search size in
  if fl >= fl_count then None
  else
    match ffs_from t.sl_bitmap.(fl) sl with
    | Some sl' -> t.heads.(fl).(sl')
    | None -> (
        match ffs_from t.fl_bitmap (fl + 1) with
        | None -> None
        | Some fl' -> (
            match ffs_from t.sl_bitmap.(fl') 0 with
            | None -> None (* bitmap invariant violated *)
            | Some sl' -> t.heads.(fl').(sl')))

let split t b want =
  (* [want] includes the header. Split off the tail if big enough. *)
  if b.size >= want + min_block then begin
    charge t split_cost;
    let rest =
      {
        addr = b.addr + want;
        size = b.size - want;
        free = false;
        prev_phys = Some b;
        next_phys = b.next_phys;
        prev_free = None;
        next_free = None;
        payload = 0;
      }
    in
    (match b.next_phys with Some n -> n.prev_phys <- Some rest | None -> ());
    b.next_phys <- Some rest;
    b.size <- want;
    t.n_blocks <- t.n_blocks + 1;
    insert_block t rest
  end

let merge_with_neighbours t b0 =
  (* Physical coalescing; neighbours must be pulled off their free lists
     before their sizes are absorbed. *)
  let b =
    match b0.prev_phys with
    | Some p when p.free ->
        charge t merge_cost;
        remove_block t p;
        p.size <- p.size + b0.size;
        p.next_phys <- b0.next_phys;
        (match b0.next_phys with Some n -> n.prev_phys <- Some p | None -> ());
        t.n_blocks <- t.n_blocks - 1;
        p
    | Some _ | None -> b0
  in
  (match b.next_phys with
  | Some n when n.free ->
      charge t merge_cost;
      remove_block t n;
      b.size <- b.size + n.size;
      b.next_phys <- n.next_phys;
      (match n.next_phys with Some nn -> nn.prev_phys <- Some b | None -> ());
      t.n_blocks <- t.n_blocks - 1
  | Some _ | None -> ());
  b

let do_memalign t ~align size =
  charge t base_cost;
  if size <= 0 || not (Alloc.is_power_of_two align) then None
  else begin
    let align = max align 16 in
    (* Over-allocate so a aligned payload always fits, then trim. *)
    let payload_sz = Alloc.round_up (max size min_payload) 16 in
    let want = payload_sz + overhead + (if align > 16 then align else 0) in
    match search_suitable t want with
    | None ->
        Alloc.Counts.failed t.counts;
        None
    | Some b ->
        remove_block t b;
        split t b (Alloc.round_up want 16);
        let payload_addr = Alloc.round_up (b.addr + overhead) align in
        b.payload <- size;
        Hashtbl.replace t.by_payload_addr payload_addr b;
        Alloc.Counts.alloc t.counts size;
        Some payload_addr
  end

let do_free t payload_addr =
  charge t base_cost;
  match Hashtbl.find_opt t.by_payload_addr payload_addr with
  | None -> invalid_arg (Printf.sprintf "Tlsf.free: unknown address %#x" payload_addr)
  | Some b ->
      Hashtbl.remove t.by_payload_addr payload_addr;
      Alloc.Counts.free t.counts b.payload;
      b.payload <- 0;
      let merged = merge_with_neighbours t b in
      insert_block t merged

let create ~clock ~base ~len =
  if len < min_block then invalid_arg "Tlsf.create: region too small";
  Uksim.Clock.advance clock init_cost;
  let t =
    {
      clock;
      heads = Array.init fl_count (fun _ -> Array.make sl_count None);
      fl_bitmap = 0;
      sl_bitmap = Array.make fl_count 0;
      by_payload_addr = Hashtbl.create 256;
      free_bytes = 0;
      counts = Alloc.Counts.create ();
      n_blocks = 1;
    }
  in
  let initial =
    {
      addr = base;
      size = len;
      free = false;
      prev_phys = None;
      next_phys = None;
      prev_free = None;
      next_free = None;
      payload = 0;
    }
  in
  insert_block t initial;
  let malloc size = do_memalign t ~align:16 size in
  let realloc addr size =
    if addr = 0 then malloc size
    else
      match Hashtbl.find_opt t.by_payload_addr addr with
      | None -> None
      | Some b ->
          if size <= b.payload then Some addr
          else (
            match malloc size with
            | None -> None
            | Some naddr ->
                charge t (Uksim.Cost.memcpy b.payload);
                do_free t addr;
                Some naddr)
  in
  Alloc.backend ~name:"tlsf"
    ~metadata:(fun () -> t.n_blocks * overhead)
    ~memalign:(do_memalign t) ~free:(do_free t) ~realloc
    ~availmem:(fun () -> t.free_bytes)
    t.counts
