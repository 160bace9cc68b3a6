(* [queued] is true while the entry waits in the heap live; popping or
   cancelling it clears the flag. A cancelled entry stays in the array,
   counted in [dead], until [pop]/[peek] reaches it or a rebuild drops
   it. *)
type 'a entry = { key : int; seq : int; value : 'a; mutable queued : bool }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int; (* entries in the array, live and cancelled *)
  mutable dead : int; (* cancelled entries still in the array *)
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; dead = 0; next_seq = 0 }
let length h = h.size - h.dead

(* Lexicographic (key, seq) order makes equal-priority pops FIFO. It is
   a total order (seqs are unique), so the pop order depends only on the
   set of live entries: dropping cancelled ones never reorders the rest. *)
let lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap h.data.(0) in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && lt h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && lt h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h key value =
  let e = { key; seq = h.next_seq; value; queued = true } in
  h.next_seq <- h.next_seq + 1;
  if Array.length h.data = 0 then h.data <- Array.make 16 e;
  grow h;
  h.data.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1);
  e

let remove_top h =
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end

(* Drop the cancelled entries and re-heapify the live ones, in O(size).
   Vacated slots get a live entry so the array holds no dead values. *)
let rebuild h =
  let live = ref 0 in
  for i = 0 to h.size - 1 do
    let e = h.data.(i) in
    if e.queued then begin
      h.data.(!live) <- e;
      incr live
    end
  done;
  if !live > 0 then Array.fill h.data !live (h.size - !live) h.data.(0);
  h.size <- !live;
  h.dead <- 0;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done

(* Amortized O(1): a rebuild costs O(size) and comes only once the
   cancelled entries outnumber the live ones. *)
let cancel h e =
  if e.queued then begin
    e.queued <- false;
    h.dead <- h.dead + 1;
    if h.dead > h.size - h.dead then rebuild h
  end

let rec skip_cancelled h =
  if h.size > 0 && not h.data.(0).queued then begin
    remove_top h;
    h.dead <- h.dead - 1;
    skip_cancelled h
  end

let pop h =
  skip_cancelled h;
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    remove_top h;
    top.queued <- false;
    Some (top.key, top.value)
  end

let peek h =
  skip_cancelled h;
  if h.size = 0 then None else Some (h.data.(0).key, h.data.(0).value)
