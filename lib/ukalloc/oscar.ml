let page = 4096
let permission_cost = 450 (* page-table permission update per alloc/free *)
let base_cost = 40
let init_cost = 3000

type state = {
  clock : Uksim.Clock.t;
  mutable shadow : int; (* monotonically advancing shadow address *)
  mutable phys_used : int;
  phys_len : int;
  live : (int, int) Hashtbl.t; (* shadow addr -> payload size *)
  counts : Alloc.Counts.t;
}

let charge t c = Uksim.Clock.advance t.clock c

let do_malloc t ~align size =
  charge t (base_cost + permission_cost);
  if size <= 0 || not (Alloc.is_power_of_two align) then None
  else begin
    let pages = (size + page - 1) / page in
    let need = pages * page in
    if t.phys_used + need > t.phys_len then begin
      Alloc.Counts.failed t.counts;
      None
    end
    else begin
      let addr = Alloc.round_up t.shadow (max align page) in
      t.shadow <- addr + need + page (* guard page *);
      t.phys_used <- t.phys_used + need;
      Hashtbl.replace t.live addr size;
      Alloc.Counts.alloc t.counts size;
      Some addr
    end
  end

let do_free t addr =
  charge t (base_cost + permission_cost);
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg (Printf.sprintf "Oscar.free: unknown address %#x" addr)
  | Some size ->
      Hashtbl.remove t.live addr;
      let pages = (size + page - 1) / page in
      t.phys_used <- t.phys_used - (pages * page);
      Alloc.Counts.free t.counts size

let create ~clock ~base ~len =
  if len < page then invalid_arg "Oscar.create: region too small";
  Uksim.Clock.advance clock init_cost;
  let t =
    {
      clock;
      shadow = base;
      phys_used = 0;
      phys_len = len;
      live = Hashtbl.create 128;
      counts = Alloc.Counts.create ();
    }
  in
  let malloc size = do_malloc t ~align:16 size in
  let realloc addr size =
    if addr = 0 then malloc size
    else
      match Hashtbl.find_opt t.live addr with
      | None -> None
      | Some old ->
          (* Oscar never reuses addresses: realloc always moves. *)
          (match malloc size with
          | None -> None
          | Some naddr ->
              charge t (Uksim.Cost.memcpy (min old size));
              do_free t addr;
              Some naddr)
  in
  Alloc.backend ~name:"oscar"
    ~metadata:(fun () -> Hashtbl.length t.live * 16)
    ~memalign:(do_malloc t) ~free:(do_free t) ~realloc
    ~availmem:(fun () -> t.phys_len - t.phys_used)
    t.counts
