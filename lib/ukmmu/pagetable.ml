type mode = Static | Dynamic | Protected32

let page_size = 4096
let entries_per_table = 512
let levels = 4
let tlb_entries = 64
let enable_paging_cost = 5400 (* load CR3, set CR0.PG, serialize: ~1.5us *)

type node = { level : int; slots : (int, node) Hashtbl.t; pages : (int, int) Hashtbl.t }
(* Levels 4..2 use [slots] (pointers to lower tables); level 1 uses [pages]
   (PTE index -> physical frame address). *)

type t = {
  clock : Uksim.Clock.t;
  pmode : mode;
  ram : int;
  root : node;
  mutable n_pages : int;
  mutable n_tables : int;
  mutable entry_writes : int; (* during boot-time population *)
  tlb : int array; (* direct-mapped: vpn by index, -1 empty *)
  tlb_paddr : int array;
  mutable hits : int;
  mutable misses : int;
}

let fresh_node level = { level; slots = Hashtbl.create 8; pages = Hashtbl.create 64 }

let index_at ~level vaddr =
  (* 9 bits per level, level 1 lowest. *)
  (vaddr lsr (12 + (9 * (level - 1)))) land (entries_per_table - 1)

(* Walk (creating intermediate tables when [create_missing]); returns the
   leaf level-1 node. Counts entry writes for created links. *)
let rec walk_to_leaf t node vaddr ~create_missing ~charge =
  if node.level = 1 then Some node
  else begin
    let idx = index_at ~level:node.level vaddr in
    match Hashtbl.find_opt node.slots idx with
    | Some child -> walk_to_leaf t child vaddr ~create_missing ~charge
    | None ->
        if not create_missing then None
        else begin
          let child = fresh_node (node.level - 1) in
          Hashtbl.replace node.slots idx child;
          t.n_tables <- t.n_tables + 1;
          t.entry_writes <- t.entry_writes + 1;
          if charge then Uksim.Clock.advance t.clock Uksim.Cost.page_table_entry_write;
          walk_to_leaf t child vaddr ~create_missing ~charge
        end
  end

let set_pte t leaf vaddr paddr ~charge =
  let idx = index_at ~level:1 vaddr in
  if not (Hashtbl.mem leaf.pages idx) then t.n_pages <- t.n_pages + 1;
  Hashtbl.replace leaf.pages idx paddr;
  t.entry_writes <- t.entry_writes + 1;
  if charge then Uksim.Clock.advance t.clock Uksim.Cost.page_table_entry_write

let populate_identity t ~charge =
  let n = t.ram / page_size in
  for i = 0 to n - 1 do
    let addr = i * page_size in
    match walk_to_leaf t t.root addr ~create_missing:true ~charge with
    | Some leaf -> set_pte t leaf addr addr ~charge
    | None -> assert false
  done

let create ~clock ~mode:pmode ~ram_bytes =
  if ram_bytes <= 0 then invalid_arg "Pagetable.create: ram_bytes must be positive";
  if pmode = Protected32 && ram_bytes > 4096 * 1024 * 1024 then
    invalid_arg "Pagetable.create: protected mode limited to 4GiB";
  let ram = (ram_bytes + page_size - 1) / page_size * page_size in
  let t =
    {
      clock;
      pmode;
      ram;
      root = fresh_node levels;
      n_pages = 0;
      n_tables = 1;
      entry_writes = 0;
      tlb = Array.make tlb_entries (-1);
      tlb_paddr = Array.make tlb_entries 0;
      hits = 0;
      misses = 0;
    }
  in
  (match pmode with
  | Static ->
      (* Structure ships inside the binary: build it without charging
         per-entry work, then pay only the constant paging-enable cost. *)
      populate_identity t ~charge:false;
      t.entry_writes <- 0;
      Uksim.Clock.advance clock enable_paging_cost
  | Dynamic ->
      Uksim.Clock.advance clock enable_paging_cost;
      populate_identity t ~charge:true
  | Protected32 -> ());
  t

let check_aligned what addr =
  if addr land (page_size - 1) <> 0 then
    invalid_arg (Printf.sprintf "Pagetable.%s: %#x not page-aligned" what addr)

let tlb_insert t vaddr paddr =
  let vpn = vaddr / page_size in
  let slot = vpn land (tlb_entries - 1) in
  t.tlb.(slot) <- vpn;
  t.tlb_paddr.(slot) <- paddr land lnot (page_size - 1)

let tlb_evict t vaddr =
  let vpn = vaddr / page_size in
  let slot = vpn land (tlb_entries - 1) in
  if t.tlb.(slot) = vpn then t.tlb.(slot) <- -1

let map_page t ~vaddr ~paddr =
  (match t.pmode with
  | Dynamic -> ()
  | Static -> invalid_arg "Pagetable.map_page: static page table is immutable"
  | Protected32 -> invalid_arg "Pagetable.map_page: paging disabled");
  check_aligned "map_page" vaddr;
  check_aligned "map_page" paddr;
  match walk_to_leaf t t.root vaddr ~create_missing:true ~charge:true with
  | Some leaf -> set_pte t leaf vaddr paddr ~charge:true
  | None -> assert false

let unmap_page t ~vaddr =
  (match t.pmode with
  | Dynamic -> ()
  | Static | Protected32 -> invalid_arg "Pagetable.unmap_page: immutable mapping");
  check_aligned "unmap_page" vaddr;
  match walk_to_leaf t t.root vaddr ~create_missing:false ~charge:false with
  | None -> ()
  | Some leaf ->
      let idx = index_at ~level:1 vaddr in
      if Hashtbl.mem leaf.pages idx then begin
        Hashtbl.remove leaf.pages idx;
        t.n_pages <- t.n_pages - 1;
        Uksim.Clock.advance t.clock Uksim.Cost.page_table_entry_write;
        tlb_evict t vaddr
      end

let translate t vaddr =
  if vaddr < 0 then None
  else
    match t.pmode with
    | Protected32 ->
        Uksim.Clock.advance t.clock Uksim.Cost.cache_hit;
        if vaddr < t.ram then Some vaddr else None
    | Static | Dynamic -> (
        let vpn = vaddr / page_size in
        let slot = vpn land (tlb_entries - 1) in
        if t.tlb.(slot) = vpn then begin
          t.hits <- t.hits + 1;
          Uksim.Clock.advance t.clock Uksim.Cost.cache_hit;
          Some (t.tlb_paddr.(slot) lor (vaddr land (page_size - 1)))
        end
        else begin
          t.misses <- t.misses + 1;
          Uksim.Clock.advance t.clock Uksim.Cost.tlb_miss;
          match walk_to_leaf t t.root vaddr ~create_missing:false ~charge:false with
          | None -> None
          | Some leaf -> (
              match Hashtbl.find_opt leaf.pages (index_at ~level:1 vaddr) with
              | None -> None
              | Some frame ->
                  tlb_insert t vaddr frame;
                  Some (frame lor (vaddr land (page_size - 1))))
        end)

let mapped_pages t = t.n_pages
let table_count t = t.n_tables
let table_bytes t = t.n_tables * page_size

let tlb_flush t =
  Array.fill t.tlb 0 tlb_entries (-1)

let tlb_hits t = t.hits
let tlb_misses t = t.misses
let boot_entry_writes t = t.entry_writes
