(* The shared content-addressing primitives: FNV-1a sampling, an
   avalanche mix, and the order-independent XOR page fold. Blockfs's
   object digests and ukstore's merkle hashes are both built from these,
   so the two stores agree on what "the digest scheme" means. *)

let page = 4096
let sample = 64

(* FNV-1a, masked to [max_int]. The mask is applied once, at the end:
   the low 62 bits of a product, and of an xor with a byte, depend only
   on the low 62 bits of their operands, so masking every step gives the
   same word. One range check, then unchecked loads; a [len] of 0 or
   less hashes nothing, whatever [off] is ([off + len - 1] could wrap). *)
let fnv buf off len =
  let h = ref 0x3bf29ce484222325 in
  if len > 0 then begin
    if off < 0 || off > Bytes.length buf - len then invalid_arg "Digest.fnv";
    for i = off to off + len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
    done
  end;
  !h land max_int

let fnv_string s = fnv (Bytes.unsafe_of_string s) 0 (String.length s)

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
