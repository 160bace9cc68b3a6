let get_u8 b i = Char.code (Bytes.get b i)
let get_u16 b i = (get_u8 b i lsl 8) lor get_u8 b (i + 1)
let get_u32 b i = (get_u16 b i lsl 16) lor get_u16 b (i + 2)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

let set_u16 b i v =
  set_u8 b i (v lsr 8);
  set_u8 b (i + 1) v

let set_u32 b i v =
  set_u16 b i (v lsr 16);
  set_u16 b (i + 2) v

let fold_carries s =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go s

(* The one's-complement sum does not depend on byte order (RFC 1071
   §2(B)): summing the buffer as little-endian words and swapping the
   folded result once gives the big-endian sum. Each 64-bit word is added
   as two 32-bit halves, so the 63-bit accumulator cannot overflow on a
   buffer under 4 GiB. The [_le] reads make the result the same on any
   host. *)
let partial_sum ?(initial = 0) b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Wire_fmt.checksum";
  let stop = off + len in
  let s = ref 0 and i = ref off in
  (* Four words a step, each load written out: a helper taking the
     [int64] would box it on every call. *)
  while !i + 32 <= stop do
    let w0 = Bytes.get_int64_le b !i
    and w1 = Bytes.get_int64_le b (!i + 8)
    and w2 = Bytes.get_int64_le b (!i + 16)
    and w3 = Bytes.get_int64_le b (!i + 24) in
    s :=
      !s
      + (Int64.to_int w0 land 0xffff_ffff)
      + Int64.to_int (Int64.shift_right_logical w0 32)
      + (Int64.to_int w1 land 0xffff_ffff)
      + Int64.to_int (Int64.shift_right_logical w1 32)
      + (Int64.to_int w2 land 0xffff_ffff)
      + Int64.to_int (Int64.shift_right_logical w2 32)
      + (Int64.to_int w3 land 0xffff_ffff)
      + Int64.to_int (Int64.shift_right_logical w3 32);
    i := !i + 32
  done;
  while !i + 8 <= stop do
    let w = Bytes.get_int64_le b !i in
    s := !s + (Int64.to_int w land 0xffff_ffff) + Int64.to_int (Int64.shift_right_logical w 32);
    i := !i + 8
  done;
  while !i + 2 <= stop do
    s := !s + Bytes.get_uint16_le b !i;
    i := !i + 2
  done;
  (* An odd last byte is the high byte of a zero-padded big-endian word:
     the low byte of a little-endian one. *)
  if !i < stop then s := !s + Bytes.get_uint8 b !i;
  let s = fold_carries !s in
  fold_carries (initial + ((s land 0xff) lsl 8) + (s lsr 8))

let checksum ?initial b ~off ~len =
  lnot (partial_sum ?initial b ~off ~len) land 0xffff
