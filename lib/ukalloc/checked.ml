exception Violation of string

module Imap = Map.Make (Int)

type t = {
  inner : Alloc.t;
  mutable live : int Imap.t; (* addr -> size *)
  checked : Alloc.t;
}

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let overlaps live addr size =
  (* A block [addr, addr+size) overlaps a live block iff the closest live
     block starting at or below addr extends past addr, or a live block
     starts inside the new block. *)
  let below = Imap.find_last_opt (fun a -> a <= addr) live in
  let above = Imap.find_first_opt (fun a -> a >= addr) live in
  (match below with Some (a, s) -> a + s > addr | None -> false)
  || (match above with Some (a, _) -> a < addr + size | None -> false)

let record t ~what ~align addr size =
  if addr land (align - 1) <> 0 then
    violation "%s: %s returned %#x not aligned to %d" t.inner.Alloc.name what addr align;
  if overlaps t.live addr size then
    violation "%s: %s returned %#x..%#x overlapping a live block" t.inner.Alloc.name what addr
      (addr + size);
  t.live <- Imap.add addr size t.live

let forget t ~what addr =
  if not (Imap.mem addr t.live) then
    violation "%s: %s of unknown address %#x" t.inner.Alloc.name what addr;
  t.live <- Imap.remove addr t.live

let wrap inner =
  let rec t =
    {
      inner;
      live = Imap.empty;
      checked =
        {
          inner with
          Alloc.name = inner.Alloc.name ^ "+checked";
          malloc =
            (fun size ->
              match inner.Alloc.malloc size with
              | None -> None
              | Some addr ->
                  record t ~what:"malloc" ~align:16 addr size;
                  Some addr);
          calloc =
            (fun n size ->
              match inner.Alloc.calloc n size with
              | None -> None
              | Some addr ->
                  record t ~what:"calloc" ~align:16 addr (n * size);
                  Some addr);
          memalign =
            (fun ~align size ->
              match inner.Alloc.memalign ~align size with
              | None -> None
              | Some addr ->
                  record t ~what:"memalign" ~align addr size;
                  Some addr);
          free =
            (fun addr ->
              forget t ~what:"free" addr;
              inner.Alloc.free addr);
          realloc =
            (fun addr size ->
              if addr <> 0 && not (Imap.mem addr t.live) then
                violation "%s: realloc of unknown address %#x" inner.Alloc.name addr;
              match inner.Alloc.realloc addr size with
              | None -> None
              | Some naddr ->
                  if addr <> 0 then t.live <- Imap.remove addr t.live;
                  if overlaps t.live naddr size then
                    violation "%s: realloc returned overlapping block %#x" inner.Alloc.name naddr;
                  t.live <- Imap.add naddr size t.live;
                  Some naddr);
        };
    }
  in
  t

let alloc t = t.checked
let live_count t = Imap.cardinal t.live
