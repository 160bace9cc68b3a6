(* Port of tinyalloc's structure: a bounded pool of block descriptors, a
   first-fit free list kept in address order, a bump "fresh" area, and
   compaction on free. Costs are dominated by list walks, which is the
   point: tinyalloc degrades under fragmentation. *)

let walk_cost = 8 (* per free-list node visited *)
let base_cost = 10 (* the hot path really is tiny *)
let compact_cost = 26 (* per merge *)
let init_cost = 1500

(* Block descriptor cap, as in the C original. The paper's port raises
   the C default of 256 to run SQLite's 60k-insert workload. *)
let max_blocks = 1 lsl 20

type block = { addr : int; mutable size : int }

type state = {
  clock : Uksim.Clock.t;
  limit : int;
  mutable top : int; (* bump pointer for fresh blocks *)
  mutable free : block list; (* address-ordered *)
  used : (int, block) Hashtbl.t;
  counts : Alloc.Counts.t;
}

let charge t c = Uksim.Clock.advance t.clock c
let n_blocks t = Hashtbl.length t.used + List.length t.free

(* First fit over the address-ordered free list; charges per node walked. *)
let take_free t size =
  let rec go acc = function
    | [] -> None
    | b :: rest ->
        charge t walk_cost;
        if b.size >= size then begin
          t.free <- List.rev_append acc rest;
          Some b
        end
        else go (b :: acc) rest
  in
  go [] t.free

let do_malloc t ~align size =
  charge t base_cost;
  if size <= 0 || not (Alloc.is_power_of_two align) then None
  else begin
    let want = Alloc.round_up size (max align 16) in
    match take_free t want with
    | Some b ->
        (* tinyalloc reuses the whole block without splitting. *)
        Hashtbl.replace t.used b.addr b;
        Alloc.Counts.alloc t.counts b.size;
        Some b.addr
    | None ->
        let addr = Alloc.round_up t.top (max align 16) in
        if addr + want > t.limit || n_blocks t >= max_blocks then begin
          Alloc.Counts.failed t.counts;
          None
        end
        else begin
          t.top <- addr + want;
          let b = { addr; size = want } in
          Hashtbl.replace t.used addr b;
          Alloc.Counts.alloc t.counts want;
          Some addr
        end
  end

(* Insert in address order, then merge adjacent runs (tinyalloc's
   compact step). *)
let insert_free t b =
  let rec insert = function
    | [] -> [ b ]
    | x :: rest ->
        charge t walk_cost;
        if b.addr < x.addr then b :: x :: rest else x :: insert rest
  in
  t.free <- insert t.free;
  let rec compact = function
    | x :: y :: rest when x.addr + x.size = y.addr ->
        charge t compact_cost;
        x.size <- x.size + y.size;
        compact (x :: rest)
    | x :: rest -> x :: compact rest
    | [] -> []
  in
  t.free <- compact t.free

let do_free t addr =
  charge t base_cost;
  match Hashtbl.find_opt t.used addr with
  | None -> invalid_arg (Printf.sprintf "Tinyalloc.free: unknown address %#x" addr)
  | Some b ->
      Hashtbl.remove t.used addr;
      (* Payload accounting uses block size as the C version does not keep
         requested sizes; the counts track block-granularity live bytes. *)
      Alloc.Counts.free t.counts b.size;
      insert_free t b

let create ~clock ~base ~len =
  if len <= 0 then invalid_arg "Tinyalloc.create";
  Uksim.Clock.advance clock init_cost;
  let t =
    {
      clock;
      limit = base + len;
      top = base;
      free = [];
      used = Hashtbl.create 128;
      counts = Alloc.Counts.create ();
    }
  in
  let malloc size = do_malloc t ~align:16 size in
  let realloc addr size =
    if addr = 0 then malloc size
    else
      match Hashtbl.find_opt t.used addr with
      | None -> None
      | Some b ->
          if size <= b.size then Some addr
          else (
            match malloc size with
            | None -> None
            | Some naddr ->
                charge t (Uksim.Cost.memcpy b.size);
                do_free t addr;
                Some naddr)
  in
  let availmem () =
    t.limit - t.top + List.fold_left (fun acc b -> acc + b.size) 0 t.free
  in
  Alloc.backend ~name:"tinyalloc"
    ~metadata:(fun () -> n_blocks t * 24)
    ~memalign:(do_malloc t) ~free:(do_free t) ~realloc ~availmem t.counts
