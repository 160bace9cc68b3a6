(* The shared content-addressing primitives: FNV-1a sampling, an
   avalanche mix, and the order-independent XOR page fold. Blockfs's
   object digests and ukstore's merkle hashes are both built from these,
   so the two stores agree on what "the digest scheme" means. *)

let page = 4096
let sample = 64

let fnv buf off len =
  let h = ref 0x3bf29ce484222325 in
  for i = off to off + len - 1 do
    h := ((!h lxor Char.code (Bytes.get buf i)) * 0x100000001b3) land max_int
  done;
  !h

let fnv_string s =
  let h = ref 0x3bf29ce484222325 in
  String.iter (fun c -> h := ((!h lxor Char.code c) * 0x100000001b3) land max_int) s;
  !h

let mix a b =
  let z = ref ((a + 0x101 + (b * 0x2545F4914F6CDD1D)) land max_int) in
  z := ((!z lxor (!z lsr 30)) * 0x1b8b2188105bd9f) land max_int;
  z := ((!z lxor (!z lsr 27)) * 0x194d049bb13311) land max_int;
  !z lxor (!z lsr 31)

(* Fold the pages covered by [buf[pos..pos+len)], which holds the object
   bytes [off..off+len); [off] must be page-aligned. Per 4 KiB page, an
   FNV of the page's first [sample] bytes is mixed with the page index
   and XOR-folded — order-independent, so chunks can be verified in
   completion order. *)
let fold_pages acc buf ~pos ~off ~len =
  let d = ref acc in
  let p = ref 0 in
  while !p < len do
    let n = min sample (len - !p) in
    d := !d lxor mix ((off + !p) / page) (fnv buf (pos + !p) n);
    p := !p + page
  done;
  !d

(* Full-content hash for small objects (merkle nodes, commits, values):
   every byte contributes, the length breaks extension ambiguity. *)
let bytes_hash buf ~pos ~len = mix (fnv buf pos len) len
let string_hash s = mix (fnv_string s) (String.length s)
