type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = [||]; size = 0; sorted = true }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let nd = Array.make (if cap = 0 then 64 else cap * 2) 0.0 in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size

let clear t =
  t.size <- 0;
  t.sorted <- true

let fold f acc t =
  let r = ref acc in
  for i = 0 to t.size - 1 do
    r := f !r t.data.(i)
  done;
  !r

let mean t = if t.size = 0 then nan else fold ( +. ) 0.0 t /. float_of_int t.size

let min t =
  if t.size = 0 then nan else fold Stdlib.min infinity t

let max t =
  if t.size = 0 then nan else fold Stdlib.max neg_infinity t

let ensure_sorted t =
  if not t.sorted then begin
    let sub = Array.sub t.data 0 t.size in
    Array.sort compare sub;
    Array.blit sub 0 t.data 0 t.size;
    t.sorted <- true
  end

let percentile t p =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    let p = Stdlib.min 100.0 (Stdlib.max 0.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
    end
  end

let median t = percentile t 50.0

let throughput_per_sec ~events ~elapsed_ns =
  if elapsed_ns <= 0.0 then 0.0 else float_of_int events /. (elapsed_ns /. 1e9)
