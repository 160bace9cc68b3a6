(* Metric primitives: named counters, gauges and log2-bucketed cycle
   histograms. Hot-path updates are O(1) field writes; everything heavier
   (snapshots, summaries) happens off the measured path. *)

type value =
  | Count of int
  | Level of float
  | Buckets of int array

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let add t d = t.n <- t.n + d
  let get t = t.n
  let reset t = t.n <- 0
  let value t = Count t.n
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0.0 }
  let set t v = t.v <- v
  let add t d = t.v <- t.v +. d
  let get t = t.v
  let reset t = t.v <- 0.0
  let value t = Level t.v
end

module Histogram = struct
  (* Bucket 0 holds non-positive observations; value v >= 1 lands in
     bucket 1 + floor(log2 v). On a 64-bit host max_int = 2^62 - 1, so
     floor(log2 max_int) = 61 and the highest reachable bucket is 62. *)
  let n_buckets = 63

  type t = {
    counts : int array;
    mutable total : int;
    mutable vmax : int;
  }

  let create () = { counts = Array.make n_buckets 0; total = 0; vmax = min_int }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 1 and v = ref v in
      while !v > 1 do
        v := !v lsr 1;
        incr b
      done;
      min (n_buckets - 1) !b
    end

  let observe t v =
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1;
    if v > t.vmax then t.vmax <- v

  let count t = t.total
  let max t = if t.total = 0 then 0 else t.vmax
  let bucket_count t i = t.counts.(i)

  let bucket_bounds i =
    if i < 0 || i >= n_buckets then invalid_arg "Histogram.bucket_bounds";
    if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

  let reset t =
    Array.fill t.counts 0 n_buckets 0;
    t.total <- 0;
    t.vmax <- min_int

  let value t = Buckets (Array.copy t.counts)
end

let value_to_json = function
  | Count n -> string_of_int n
  | Level v ->
      if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
      else Printf.sprintf "%g" v
  | Buckets b ->
      (* Trim trailing empty buckets for compactness. *)
      let last = ref (-1) in
      Array.iteri (fun i n -> if n > 0 then last := i) b;
      let total = Array.fold_left ( + ) 0 b in
      let cells = List.init (!last + 1) (fun i -> string_of_int b.(i)) in
      Printf.sprintf "{\"total\": %d, \"log2_buckets\": [%s]}" total (String.concat ", " cells)

let diff_value ~before ~after =
  match (before, after) with
  | Count b, Count a -> Count (a - b)
  | Buckets b, Buckets a ->
      Buckets (Array.init (Array.length a) (fun i -> a.(i) - (if i < Array.length b then b.(i) else 0)))
  | _, v -> v (* gauges (and kind changes) keep the newer reading *)
