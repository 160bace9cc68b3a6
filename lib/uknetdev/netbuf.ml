(* Packet buffers as an ownership currency (paper §3.1, Fig 14 narrative).

   A netbuf is split in two:

   - a [cell]: the storage — one bytes block with reserved headroom, a
     reference count, a generation stamp, and (for pooled cells) a link
     back to its home pool;
   - a descriptor [t]: a lightweight {cell, off, length} window that is
     what flows through the datapath. Drivers, the stack, and apps hand
     descriptors to each other instead of copying frames; [share] clones a
     descriptor onto the same storage (an indirect mbuf / pbuf_ref), and
     [recycle] drops one — when the last descriptor goes, the cell returns
     to its pool (or the GC for heap cells).

   Every remaining way to materialize payload bytes is an explicit, counted
   call ([copy_out] / [copy_in] / [copy] / [of_bytes]); the counts are
   published as the sticky "uknetdev.copies" uktrace source so a bench
   phase can assert the hot path performs zero copies. *)

type cell = {
  buf : bytes;
  hroom : int;
  mutable refs : int; (* live descriptors onto this storage *)
  mutable gen : int; (* bumped each time the cell returns to a pool *)
  mutable pooled : bool; (* currently sitting in a pool free list *)
  home : pool option; (* owning pool; None for heap cells *)
}

and t = {
  cell : cell;
  born : int; (* cell generation at descriptor creation *)
  mutable off : int;
  mutable length : int;
  mutable dead : bool; (* this descriptor was recycled *)
}

and pool = {
  clock : Uksim.Clock.t;
  size : int;
  headroom : int;
  free : cell Stack.t;
  returns : cell Queue.t; (* deferred frees from other cores *)
  on_op : (Uksim.Clock.t -> unit) option; (* e.g. shared-pool lock model *)
  total : int;
  mutable unmade : int; (* cells paid for at create whose bytes are not made yet *)
}

(* --- copy accounting ------------------------------------------------------ *)

(* Debug-mode lifetime guards (recycling twice, use after recycle); off by
   default so the hot path pays nothing. *)
let debug = ref false
let set_debug b = debug := b

module C = Uktrace.Metric.Counter

(* Sticky: survives Registry.clear so bench trial boundaries keep the
   source (its reset still zeroes the window). *)
let copies = Uktrace.Registry.group ~sticky:true ~subsystem:"uknetdev" "copies"
let copy_out_count = Uktrace.Registry.counter copies "copy_out"
let copy_in_count = Uktrace.Registry.counter copies "copy_in"
let copy_count = Uktrace.Registry.counter copies "copy"
let copied_bytes = Uktrace.Registry.counter copies "bytes"

let total_copies () = C.get copy_out_count + C.get copy_in_count + C.get copy_count
let copied_bytes_total () = C.get copied_bytes

let counted counter n =
  if n > 0 then begin
    C.incr counter;
    C.add copied_bytes n
  end

(* --- descriptors ---------------------------------------------------------- *)

let mk_cell ?home ~headroom ~size () =
  {
    buf = Bytes.create (headroom + size);
    hroom = headroom;
    refs = 0;
    gen = 0;
    pooled = false;
    home;
  }

let descr cell =
  cell.refs <- cell.refs + 1;
  { cell; born = cell.gen; off = cell.hroom; length = 0; dead = false }

let check t =
  if !debug && (t.dead || t.born <> t.cell.gen) then
    invalid_arg "Netbuf: use after give"

let alloc ?(headroom = 64) ~size () =
  if size < 0 || headroom < 0 then invalid_arg "Netbuf.alloc";
  descr (mk_cell ~headroom ~size ())

let data t = t.cell.buf
let offset t = t.off
let len t = t.length
let capacity t = Bytes.length t.cell.buf - t.cell.hroom
let live t = (not t.dead) && t.born = t.cell.gen

let set_len t n =
  check t;
  if n < 0 || t.off + n > Bytes.length t.cell.buf then invalid_arg "Netbuf.set_len";
  t.length <- n

let push t n =
  check t;
  if n < 0 || n > t.off then invalid_arg "Netbuf.push: no headroom";
  t.off <- t.off - n;
  t.length <- t.length + n

let pull t n =
  check t;
  if n < 0 || n > t.length then invalid_arg "Netbuf.pull: beyond payload";
  t.off <- t.off + n;
  t.length <- t.length - n

let reset t =
  check t;
  t.off <- t.cell.hroom;
  t.length <- 0

let view t =
  check t;
  (t.cell.buf, t.off, t.length)

(* --- the counted copies --------------------------------------------------- *)

let copy_out t =
  check t;
  counted copy_out_count t.length;
  Bytes.sub t.cell.buf t.off t.length

let copy_in t payload =
  check t;
  let n = Bytes.length payload in
  if t.off + n > Bytes.length t.cell.buf then invalid_arg "Netbuf.copy_in: too large";
  counted copy_in_count n;
  Bytes.blit payload 0 t.cell.buf t.off n;
  t.length <- n

(* Driver-internal transfer between two live buffers: one counted copy
   (not a copy_out + copy_in pair). *)
let copy_into src dst =
  check src;
  check dst;
  let n = src.length in
  if dst.off + n > Bytes.length dst.cell.buf then invalid_arg "Netbuf.copy_into: too large";
  counted copy_in_count n;
  Bytes.blit src.cell.buf src.off dst.cell.buf dst.off n;
  dst.length <- n

let of_bytes ?(headroom = 64) payload =
  let n = Bytes.length payload in
  let b = alloc ~headroom ~size:n () in
  counted copy_count n;
  Bytes.blit payload 0 b.cell.buf b.off n;
  b.length <- n;
  b

let copy ?headroom t =
  check t;
  let headroom = match headroom with Some h -> h | None -> t.cell.hroom in
  let b = alloc ~headroom ~size:t.length () in
  counted copy_count t.length;
  Bytes.blit t.cell.buf t.off b.cell.buf b.off t.length;
  b.length <- t.length;
  b

(* --- sharing and release -------------------------------------------------- *)

let share t =
  check t;
  t.cell.refs <- t.cell.refs + 1;
  { cell = t.cell; born = t.born; off = t.off; length = t.length; dead = false }

let pool_return p cell =
  if cell.pooled then invalid_arg "Netbuf.Pool: double give";
  cell.gen <- cell.gen + 1;
  cell.pooled <- true;
  Stack.push cell p.free

let recycle t =
  if t.dead then begin
    if !debug then invalid_arg "Netbuf: double give"
  end
  else begin
    t.dead <- true;
    let c = t.cell in
    c.refs <- c.refs - 1;
    if c.refs < 0 then invalid_arg "Netbuf.recycle: over-release";
    if c.refs = 0 then
      match c.home with
      | None -> () (* heap cell: the GC owns it *)
      | Some p ->
          (* Deferred return: recycling may happen on any core; pushing the
             cell costs the recycler nothing, and the pool's owner pays the
             return cost when it drains the list on its next take — the
             remote-free list of a real per-core magazine. *)
          Queue.push c p.returns
  end

(* --- pools ---------------------------------------------------------------- *)

module Pool = struct
  type t = pool

  let take_cost = 18
  let return_cost = 14

  (* With [alloc], each cell is backed by a real allocation made at
     create, so the backend counts the pool's memory from the start. The
     cell's host bytes are made on its first take: a pool holds the cells
     its traffic has needed at once, not its [count]. *)
  let create ~clock ?alloc ?on_op ?(headroom = 64) ~count ~size () =
    if count <= 0 || size <= 0 then invalid_arg "Netbuf.Pool.create";
    Option.iter
      (fun a ->
        for _ = 1 to count do
          match Ukalloc.Alloc.uk_malloc a (size + headroom) with
          | Some _ -> ()
          | None -> invalid_arg "Netbuf.Pool.create: allocator exhausted"
        done)
      alloc;
    {
      clock;
      size;
      headroom;
      free = Stack.create ();
      returns = Queue.create ();
      on_op;
      total = count;
      unmade = count;
    }

  let take ?clock p =
    let clock = match clock with Some c -> c | None -> p.clock in
    (match p.on_op with Some f -> f clock | None -> ());
    Uksim.Clock.advance clock take_cost;
    (* Drain the remote-free list first: the taker pays for returns, as a
       magazine owner reclaiming its remote frees would. *)
    while not (Queue.is_empty p.returns) do
      let c = Queue.pop p.returns in
      Uksim.Clock.advance clock return_cost;
      pool_return p c
    done;
    match Stack.pop_opt p.free with
    | Some c ->
        c.pooled <- false;
        Some (descr c)
    | None when p.unmade > 0 ->
        p.unmade <- p.unmade - 1;
        Some (descr (mk_cell ~home:p ~headroom:p.headroom ~size:p.size ()))
    | None -> None

  let available p = Stack.length p.free + Queue.length p.returns + p.unmade

  let pending_returns p = Queue.length p.returns
  let total p = p.total
end
