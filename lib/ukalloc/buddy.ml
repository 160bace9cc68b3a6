let min_order = 5 (* 32-byte blocks *)

(* Cycle costs per structural step. *)
let base_cost = 26
let split_cost = 20
let merge_cost = 22
let init_cost_per_page = 82 (* Mini-OS walks and maps the page map at init *)
let page_size = 4096

type state = {
  clock : Uksim.Clock.t;
  base : int;
  len : int;
  max_order : int;
  free_lists : (int, unit) Hashtbl.t array; (* index: order; keys: block addr *)
  allocated : (int, int) Hashtbl.t; (* addr -> order *)
  sizes : (int, int) Hashtbl.t; (* addr -> requested payload size *)
  counts : Alloc.Counts.t;
}

let charge t c = Uksim.Clock.advance t.clock c

let order_of_size size =
  let s = max size (1 lsl min_order) in
  Alloc.log2_ceil s

let pop_free t order =
  let tbl = t.free_lists.(order) in
  let found = ref None in
  (try
     Hashtbl.iter
       (fun addr () ->
         found := Some addr;
         raise Exit)
       tbl
   with Exit -> ());
  match !found with
  | None -> None
  | Some addr ->
      Hashtbl.remove tbl addr;
      Some addr

let rec alloc_order t order =
  if order > t.max_order then None
  else
    match pop_free t order with
    | Some addr -> Some addr
    | None -> (
        (* Split a block of the next order up. *)
        match alloc_order t (order + 1) with
        | None -> None
        | Some addr ->
            charge t split_cost;
            let half = 1 lsl order in
            Hashtbl.replace t.free_lists.(order) (addr + half) ();
            Some addr)

let buddy_of t addr order =
  let rel = addr - t.base in
  t.base + (rel lxor (1 lsl order))

let record_alloc t addr order size =
  Hashtbl.replace t.allocated addr order;
  Hashtbl.replace t.sizes addr size;
  Alloc.Counts.alloc t.counts size

let do_malloc t ~align size =
  charge t base_cost;
  if size <= 0 || not (Alloc.is_power_of_two align) then None
  else begin
    (* Buddy blocks are naturally aligned to their size, so alignment is
       satisfied by rounding the order up to cover the alignment. *)
    let order = max (order_of_size size) (order_of_size align) in
    match alloc_order t order with
    | None ->
        Alloc.Counts.failed t.counts;
        None
    | Some addr ->
        record_alloc t addr order size;
        Some addr
  end

let rec coalesce t addr order =
  if order < t.max_order then begin
    let buddy = buddy_of t addr order in
    if Hashtbl.mem t.free_lists.(order) buddy then begin
      charge t merge_cost;
      Hashtbl.remove t.free_lists.(order) buddy;
      let merged = min addr buddy in
      coalesce t merged (order + 1)
    end
    else Hashtbl.replace t.free_lists.(order) addr ()
  end
  else Hashtbl.replace t.free_lists.(order) addr ()

let do_free t addr =
  charge t base_cost;
  match Hashtbl.find_opt t.allocated addr with
  | None -> invalid_arg (Printf.sprintf "Buddy.free: unknown address %#x" addr)
  | Some order ->
      let size = try Hashtbl.find t.sizes addr with Not_found -> 0 in
      Hashtbl.remove t.allocated addr;
      Hashtbl.remove t.sizes addr;
      Alloc.Counts.free t.counts size;
      coalesce t addr order

let availmem t () =
  let free = ref 0 in
  Array.iteri (fun order tbl -> free := !free + (Hashtbl.length tbl * (1 lsl order))) t.free_lists;
  !free

let create ~clock ~base ~len =
  if not (Alloc.is_power_of_two len) || len < 1 lsl min_order then
    invalid_arg "Buddy.create: len must be a power of two >= 2^min_order";
  if base land (len - 1) <> 0 then invalid_arg "Buddy.create: base must be aligned to len";
  let max_order = Alloc.log2_floor len in
  (* Mini-OS-style init: build the page map over the whole region. *)
  Uksim.Clock.advance clock (len / page_size * init_cost_per_page);
  let t =
    {
      clock;
      base;
      len;
      max_order;
      free_lists = Array.init (max_order + 1) (fun _ -> Hashtbl.create 8);
      allocated = Hashtbl.create 64;
      sizes = Hashtbl.create 64;
      counts = Alloc.Counts.create ();
    }
  in
  Hashtbl.replace t.free_lists.(max_order) base ();
  let malloc size = do_malloc t ~align:16 size in
  let realloc addr size =
    if addr = 0 then malloc size
    else
      match Hashtbl.find_opt t.sizes addr with
      | None -> None
      | Some old ->
          if size <= old then Some addr
          else (
            match malloc size with
            | None -> None
            | Some naddr ->
                charge t (Uksim.Cost.memcpy old);
                do_free t addr;
                Some naddr)
  in
  Alloc.backend ~name:"buddy"
    ~metadata:(fun () -> (Hashtbl.length t.allocated * 16) + (t.len / page_size))
    ~memalign:(do_malloc t) ~free:(do_free t) ~realloc ~availmem:(availmem t) t.counts
