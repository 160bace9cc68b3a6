(* Classic B-tree with preemptive splitting on the way down. Leaves hold
   keys beside (value-address, value) entries; interior nodes hold
   separator keys and children. The value bytes are kept in the OCaml
   heap for inspection, while their storage cost lives in the ukalloc
   backend via the recorded address. *)

type entry = { mutable addr : int; mutable value : bytes }

type node = {
  keys : string array; (* separators (interior) or entry keys (leaf) *)
  entries : entry array; (* leaves only *)
  mutable children : node array; (* interior only; length = keys + 1 *)
  mutable nkeys : int;
  leaf : bool;
}

type t = {
  clock : Uksim.Clock.t;
  alloc : Ukalloc.Alloc.t;
  order : int;
  mutable root : node;
  mutable count : int;
}

let cmp_cost = 14
let node_alloc_size = 512

let charge t c = Uksim.Clock.advance t.clock c

let dummy_entry = { addr = 0; value = Bytes.empty }

let new_node t ~leaf =
  (* Node storage comes from the allocator; failure is surfaced as Oom by
     callers that can fail. *)
  (match Ukalloc.Alloc.uk_malloc t.alloc node_alloc_size with
  | Some _ -> ()
  | None -> raise Exit);
  let cap = t.order in
  {
    keys = Array.make cap "";
    entries = (if leaf then Array.make cap dummy_entry else [||]);
    children = [||];
    nkeys = 0;
    leaf;
  }

let create ~clock ~alloc ?(order = 32) () =
  if order < 4 then invalid_arg "Btree.create: order must be >= 4";
  let placeholder = { keys = [||]; entries = [||]; children = [||]; nkeys = 0; leaf = true } in
  let t = { clock; alloc; order; root = placeholder; count = 0 } in
  let root =
    try new_node t ~leaf:true
    with Exit -> invalid_arg "Btree.create: allocator exhausted at creation"
  in
  t.root <- root;
  t

let max_keys t = t.order - 1

(* Binary search for the insertion point of [key] among the first nkeys
   keys; charges one comparison per probe. *)
let search_keys t node key =
  let lo = ref 0 and hi = ref node.nkeys in
  while !lo < !hi do
    charge t cmp_cost;
    let mid = (!lo + !hi) / 2 in
    if String.compare node.keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Split full child [i] of interior/parent [parent]. *)
let split_child t parent i =
  let child = parent.children.(i) in
  let mid = t.order / 2 in
  let right = new_node t ~leaf:child.leaf in
  charge t (Uksim.Cost.memcpy (node_alloc_size / 2));
  let right_keys = child.nkeys - mid - (if child.leaf then 0 else 1) in
  if child.leaf then begin
    (* Leaves keep all keys; separator = first key of right sibling. *)
    let right_keys = child.nkeys - mid in
    Array.blit child.keys mid right.keys 0 right_keys;
    Array.blit child.entries mid right.entries 0 right_keys;
    right.nkeys <- right_keys;
    child.nkeys <- mid
  end
  else begin
    Array.blit child.keys (mid + 1) right.keys 0 right_keys;
    right.children <- Array.sub child.children (mid + 1) (right_keys + 1);
    right.nkeys <- right_keys;
    child.children <- Array.sub child.children 0 (mid + 1);
    child.nkeys <- mid
  end;
  (* Separator: first key of the right leaf, or the median key promoted
     out of an interior child (still readable in the truncated array). *)
  let sep = if child.leaf then right.keys.(0) else child.keys.(mid) in
  (* Insert separator + right child into parent at position i. *)
  Array.blit parent.keys i parent.keys (i + 1) (parent.nkeys - i);
  parent.keys.(i) <- sep;
  let nchildren = parent.nkeys + 1 in
  let nc = Array.make (nchildren + 1) right in
  Array.blit parent.children 0 nc 0 (i + 1);
  nc.(i + 1) <- right;
  Array.blit parent.children (i + 1) nc (i + 2) (nchildren - i - 1);
  parent.children <- nc;
  parent.nkeys <- parent.nkeys + 1

let store_value t value =
  match Ukalloc.Alloc.uk_malloc t.alloc (max 16 (Bytes.length value)) with
  | Some addr ->
      charge t (Uksim.Cost.memcpy (Bytes.length value));
      Some addr
  | None -> None

let rec insert_nonfull t node key value =
  if node.leaf then begin
    let i = search_keys t node key in
    if i < node.nkeys && String.equal node.keys.(i) key then begin
      (* Replace: free old payload, store new. *)
      let e = node.entries.(i) in
      Ukalloc.Alloc.uk_free t.alloc e.addr;
      match store_value t value with
      | None -> Error `Oom
      | Some addr ->
          e.addr <- addr;
          e.value <- value;
          Ok ()
    end
    else begin
      match store_value t value with
      | None -> Error `Oom
      | Some addr ->
          Array.blit node.keys i node.keys (i + 1) (node.nkeys - i);
          Array.blit node.entries i node.entries (i + 1) (node.nkeys - i);
          node.keys.(i) <- key;
          node.entries.(i) <- { addr; value };
          node.nkeys <- node.nkeys + 1;
          t.count <- t.count + 1;
          Ok ()
    end
  end
  else begin
    let i = search_keys t node key in
    let i =
      if i < node.nkeys && String.compare node.keys.(i) key <= 0 then i + 1 else i
    in
    let child = node.children.(i) in
    if child.nkeys >= max_keys t then begin
      split_child t node i;
      let i = if String.compare node.keys.(i) key <= 0 then i + 1 else i in
      insert_nonfull t node.children.(i) key value
    end
    else insert_nonfull t child key value
  end

let insert t ~key ~value =
  try
    if t.root.nkeys >= max_keys t then begin
      let new_root = new_node t ~leaf:false in
      new_root.children <- [| t.root |];
      new_root.nkeys <- 0;
      split_child t new_root 0;
      t.root <- new_root
    end;
    insert_nonfull t t.root key value
  with Exit -> Error `Oom

let rec find_node t node key =
  let i = search_keys t node key in
  if node.leaf then
    if i < node.nkeys && String.equal node.keys.(i) key then Some node.entries.(i) else None
  else begin
    let i = if i < node.nkeys && String.compare node.keys.(i) key <= 0 then i + 1 else i in
    find_node t node.children.(i) key
  end

let find t key = match find_node t t.root key with Some e -> Some e.value | None -> None

let rec delete_in t node key =
  let i = search_keys t node key in
  if node.leaf then begin
    if i < node.nkeys && String.equal node.keys.(i) key then begin
      Ukalloc.Alloc.uk_free t.alloc node.entries.(i).addr;
      Array.blit node.keys (i + 1) node.keys i (node.nkeys - i - 1);
      Array.blit node.entries (i + 1) node.entries i (node.nkeys - i - 1);
      node.nkeys <- node.nkeys - 1;
      t.count <- t.count - 1;
      true
    end
    else false
  end
  else begin
    let i = if i < node.nkeys && String.compare node.keys.(i) key <= 0 then i + 1 else i in
    delete_in t node.children.(i) key
  end

let delete t key = delete_in t t.root key

let length t = t.count

let iter t ?min_key ?max_key f =
  let lower k = match min_key with Some m -> String.compare k m >= 0 | None -> true in
  let upper k = match max_key with Some m -> String.compare k m <= 0 | None -> true in
  let rec go node =
    if node.leaf then
      for i = 0 to node.nkeys - 1 do
        let k = node.keys.(i) in
        if lower k && upper k then f k node.entries.(i).value
      done
    else begin
      for i = 0 to node.nkeys do
        go node.children.(i)
      done
    end
  in
  go t.root
