(* Cycle costs for the trivial bump-pointer paths. *)
let op_cost = 10
let init_cost = 400

let create ~clock ~base ~len =
  if len <= 0 || base < 0 then invalid_arg "Bootalloc.create";
  Uksim.Clock.advance clock init_cost;
  let cursor = ref base in
  let limit = base + len in
  let counts = Alloc.Counts.create () in
  let memalign ~align size =
    Uksim.Clock.advance clock op_cost;
    if size <= 0 || not (Alloc.is_power_of_two align) then None
    else begin
      let addr = Alloc.round_up !cursor align in
      if addr + size > limit then begin
        Alloc.Counts.failed counts;
        None
      end
      else begin
        cursor := addr + size;
        Alloc.Counts.alloc counts size;
        Some addr
      end
    end
  in
  let free _addr =
    (* Region allocator: individual frees are ignored by design, and
       release no bytes. *)
    Uksim.Clock.advance clock 2;
    Alloc.Counts.free counts 0
  in
  let realloc addr size =
    if addr = 0 then memalign ~align:16 size
    else
      match memalign ~align:16 size with
      | None -> None
      | Some naddr ->
          (* Old contents would be copied; charge a conservative copy. *)
          Uksim.Clock.advance clock (Uksim.Cost.memcpy size);
          Some naddr
  in
  Alloc.backend ~name:"bootalloc" ~memalign ~free ~realloc
    ~availmem:(fun () -> limit - !cursor)
    counts
