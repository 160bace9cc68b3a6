let page_size = 65536
let page_header = 64
let huge_threshold = 16384

(* Cycle costs. *)
let fast_cost = 14 (* pop from sharded free list *)
let free_cost = 12 (* push onto local_free *)
let swap_cost = 28 (* collect local_free into free *)
let page_init_base = 260
let page_init_per_block = 2
let init_cost = 1_300_000 (* pthread + heap bring-up, ~0.36 ms *)

type page = {
  block_size : int;
  mutable free : int list;
  mutable local_free : int list;
  mutable used : int;
}

type state = {
  clock : Uksim.Clock.t;
  limit : int;
  mutable bump : int; (* segment carve pointer, page-aligned *)
  avail : (int, page list) Hashtbl.t; (* class size -> pages with space *)
  page_of : (int, page) Hashtbl.t; (* addr / page_size -> page *)
  huge : (int, int) Hashtbl.t; (* addr -> rounded size *)
  req_sizes : (int, int) Hashtbl.t; (* payload addr -> requested size *)
  mutable huge_free : int; (* bytes returned from huge frees *)
  mutable n_pages : int;
  counts : Alloc.Counts.t;
}

let charge t c = Uksim.Clock.advance t.clock c

let class_of_size size =
  if size <= 16 then 16
  else if size <= 1024 then Alloc.round_up size 16
  else if size <= 8192 then Alloc.round_up size 512
  else Alloc.round_up size 1024

let page_index addr = addr / page_size

let avail_pages t cls = match Hashtbl.find_opt t.avail cls with Some l -> l | None -> []

let carve_page t cls =
  let addr = Alloc.round_up t.bump page_size in
  if addr + page_size > t.limit then None
  else begin
    t.bump <- addr + page_size;
    (* Power-of-two classes lay blocks out class-aligned (mimalloc keeps
       natural alignment for pow2 sizes); others start after the header. *)
    let start =
      if Alloc.is_power_of_two cls && cls > page_header then cls else page_header
    in
    let capacity = (page_size - start) / cls in
    charge t (page_init_base + (capacity * page_init_per_block));
    let blocks = List.init capacity (fun i -> addr + start + (i * cls)) in
    let p = { block_size = cls; free = blocks; local_free = []; used = 0 } in
    Hashtbl.replace t.page_of (page_index addr) p;
    t.n_pages <- t.n_pages + 1;
    Some p
  end

(* Pop a block from a page, swapping in local_free when the allocation
   shard runs dry (mimalloc's "collect"). *)
let rec page_pop t p =
  match p.free with
  | addr :: rest ->
      p.free <- rest;
      p.used <- p.used + 1;
      Some addr
  | [] ->
      if p.local_free <> [] then begin
        charge t swap_cost;
        p.free <- List.rev p.local_free;
        p.local_free <- [];
        page_pop t p
      end
      else None

let rec alloc_small t cls size =
  match avail_pages t cls with
  | p :: rest -> (
      charge t fast_cost;
      match page_pop t p with
      | Some addr ->
          Hashtbl.replace t.req_sizes addr size;
          Alloc.Counts.alloc t.counts size;
          Some addr
      | None ->
          (* Page exhausted: rotate it out and retry. *)
          Hashtbl.replace t.avail cls rest;
          alloc_small t cls size)
  | [] -> (
      match carve_page t cls with
      | None ->
          Alloc.Counts.failed t.counts;
          None
      | Some p ->
          Hashtbl.replace t.avail cls [ p ];
          alloc_small t cls size)

let alloc_huge t size =
  let rounded = Alloc.round_up size 4096 in
  let addr = Alloc.round_up t.bump 4096 in
  charge t (fast_cost * 8);
  if addr + rounded > t.limit then begin
    Alloc.Counts.failed t.counts;
    None
  end
  else begin
    t.bump <- addr + rounded;
    Hashtbl.replace t.huge addr rounded;
    Hashtbl.replace t.req_sizes addr size;
    Alloc.Counts.alloc t.counts size;
    Some addr
  end

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let do_malloc t ~align size =
  if size <= 0 || not (Alloc.is_power_of_two align) then None
  else if align > 4096 then None
  else if size > huge_threshold || align > 1024 then alloc_huge t (max size align)
  else if align > 16 then
    (* Aligned requests go to a power-of-two class: blocks in such pages
       are naturally class-aligned. *)
    alloc_small t (next_pow2 (max size align)) size
  else alloc_small t (class_of_size size) size

let do_free t addr =
  charge t free_cost;
  match Hashtbl.find_opt t.req_sizes addr with
  | None -> invalid_arg (Printf.sprintf "Mimalloc.free: unknown address %#x" addr)
  | Some size ->
      Hashtbl.remove t.req_sizes addr;
      Alloc.Counts.free t.counts size;
      (match Hashtbl.find_opt t.huge addr with
      | Some rounded ->
          Hashtbl.remove t.huge addr;
          t.huge_free <- t.huge_free + rounded
      | None -> (
          match Hashtbl.find_opt t.page_of (page_index addr) with
          | None -> invalid_arg "Mimalloc.free: address outside any page"
          | Some p ->
              p.local_free <- addr :: p.local_free;
              p.used <- p.used - 1;
              (* Pages with reclaimed space rejoin the allocation ring. *)
              let ring = avail_pages t p.block_size in
              if not (List.memq p ring) then Hashtbl.replace t.avail p.block_size (p :: ring)))

let create ~clock ~base ~len =
  if len < page_size then invalid_arg "Mimalloc.create: region too small";
  Uksim.Clock.advance clock init_cost;
  let t =
    {
      clock;
      limit = base + len;
      bump = base;
      avail = Hashtbl.create 32;
      page_of = Hashtbl.create 64;
      huge = Hashtbl.create 16;
      req_sizes = Hashtbl.create 256;
      huge_free = 0;
      n_pages = 0;
      counts = Alloc.Counts.create ();
    }
  in
  let malloc size = do_malloc t ~align:16 size in
  let realloc addr size =
    if addr = 0 then malloc size
    else
      match Hashtbl.find_opt t.req_sizes addr with
      | None -> None
      | Some old ->
          let fits =
            match Hashtbl.find_opt t.page_of (page_index addr) with
            | Some p -> size <= p.block_size
            | None -> ( match Hashtbl.find_opt t.huge addr with Some r -> size <= r | None -> false)
          in
          if fits then Some addr
          else (
            match malloc size with
            | None -> None
            | Some naddr ->
                charge t (Uksim.Cost.memcpy old);
                do_free t addr;
                Some naddr)
  in
  let availmem () = t.limit - t.bump + t.huge_free in
  Alloc.backend ~name:"mimalloc"
    ~metadata:(fun () -> t.n_pages * page_header)
    ~memalign:(do_malloc t) ~free:(do_free t) ~realloc ~availmem t.counts
