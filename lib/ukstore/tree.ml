(* The pure merkle layer: a canonical hash-trie over the key's digest
   nibbles. "Canonical" is the load-bearing word — the trie's shape is a
   function of the key *set* alone (leaves split when they exceed
   [leaf_max], branches collapse back when they shrink to it), and every
   hash is an order-independent XOR fold, so two stores that applied the
   same updates in different orders agree on the root hash bit-for-bit.
   That property is what makes comparing two stores' contents (same-seed
   replays, replicas) a single integer comparison.

   Objects are addressed by structural hash, not by serialization: the
   codec (in {!Store}) may embed disk locations alongside child refs
   without perturbing content addresses. *)

module D = Ukvfs.Digest

type hash = int

let null : hash = 0

(* Fanout 16 on successive nibbles of the key digest; a leaf holds up to
   [leaf_max] entries before splitting. Small enough that a few hundred
   keys already exercise multi-level branches. *)
let leaf_max = 8
let max_depth = 12

type node =
  | Leaf of (string * hash) list  (** key -> blob hash, sorted by key *)
  | Branch of int * (int * hash) list
      (** subtree entry count; nibble -> child hash, sorted by nibble *)

type commit = { root : hash; parents : hash list; msg : string }

type obj =
  | Blob of string
  | Node of node
  | Commit of commit

(* The object source: [get] resolves a hash (raising on corruption —
   the store maps that to an errno at its API boundary), [put] interns
   an object and returns its structural hash. [depth_seen] is a cheap
   observation channel: trie ops record the deepest level they touch so
   the store can export a tree-depth gauge without a full walk. *)
type src = {
  get : hash -> obj;
  put : obj -> hash;
  mutable depth_seen : int;
}

let key_hash k = D.string_hash k
let nibble kh d = (kh lsr (4 * d)) land 15

(* --- structural hashing --------------------------------------------------
   Domain-separating tags keep blob/node/commit hashes from colliding
   across kinds; every multi-element combine is an XOR fold, so entry
   order (and a commit's parent order) never matters. *)

let blob_tag = 0xb10b
let commit_tag = 0xc011
let entry_hash k vh = D.mix (key_hash k) vh
let blob_hash v = D.mix (D.string_hash v) blob_tag

let node_hash = function
  | Leaf entries -> List.fold_left (fun acc (k, vh) -> acc lxor entry_hash k vh) 0 entries
  | Branch (_, kids) -> List.fold_left (fun acc (_, ch) -> acc lxor ch) 0 kids

let commit_hash ~root ~parents ~msg =
  let ps = List.fold_left ( lxor ) 0 parents in
  D.mix (D.mix (D.mix root (D.string_hash msg)) ps) commit_tag

let hash_of_obj = function
  | Blob v -> blob_hash v
  | Node n -> node_hash n
  | Commit { root; parents; msg } -> commit_hash ~root ~parents ~msg

(* --- helpers -------------------------------------------------------------- *)

let count src h =
  if h = null then 0
  else
    match src.get h with
    | Node (Leaf entries) -> List.length entries
    | Node (Branch (n, _)) -> n
    | Blob _ | Commit _ -> invalid_arg "Tree.count: not a node"

let node_of src h =
  match src.get h with
  | Node n -> n
  | Blob _ | Commit _ -> invalid_arg "Tree: hash is not a node"

let see src d = if d > src.depth_seen then src.depth_seen <- d

(* Sorted-assoc insert/replace for leaf entries. *)
let rec leaf_set entries k vh =
  match entries with
  | [] -> [ (k, vh) ]
  | (k', vh') :: rest ->
      if String.compare k k' < 0 then (k, vh) :: entries
      else if String.equal k k' then (k, vh) :: rest
      else (k', vh') :: leaf_set rest k vh

let rec kids_set kids nb ch =
  match kids with
  | [] -> if ch = null then [] else [ (nb, ch) ]
  | (nb', ch') :: rest ->
      if nb < nb' then if ch = null then kids else (nb, ch) :: kids
      else if nb = nb' then if ch = null then rest else (nb, ch) :: rest
      else (nb', ch') :: kids_set rest nb ch

(* Split an over-full entry list into a Branch at depth [d], recursing
   while a nibble group still overflows (all keys sharing a prefix). *)
let rec build src d entries =
  if List.length entries <= leaf_max || d >= max_depth then begin
    see src d;
    src.put (Node (Leaf entries))
  end
  else begin
    let groups = Array.make 16 [] in
    List.iter (fun (k, vh) -> let nb = nibble (key_hash k) d in groups.(nb) <- (k, vh) :: groups.(nb)) entries;
    let kids = ref [] in
    for nb = 15 downto 0 do
      match groups.(nb) with
      | [] -> ()
      | g -> kids := (nb, build src (d + 1) (List.rev g)) :: !kids
    done;
    see src d;
    src.put (Node (Branch (List.length entries, !kids)))
  end

(* Flatten a subtree to its sorted (key, value-hash) list. *)
let to_list src h =
  let rec go h acc =
    if h = null then acc
    else
      match node_of src h with
      | Leaf entries -> List.rev_append entries acc
      | Branch (_, kids) -> List.fold_left (fun acc (_, ch) -> go ch acc) acc kids
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (go h [])

(* --- the three trie operations ------------------------------------------- *)

let find src h key =
  let kh = key_hash key in
  let rec go d h =
    if h = null then None
    else begin
      see src d;
      match node_of src h with
      | Leaf entries -> List.assoc_opt key entries
      | Branch (_, kids) -> (
          match List.assoc_opt (nibble kh d) kids with
          | None -> None
          | Some ch -> go (d + 1) ch)
    end
  in
  go 0 h

let set src h key vh =
  let kh = key_hash key in
  let rec go d h =
    if h = null then build src d [ (key, vh) ]
    else begin
      see src d;
      match node_of src h with
      | Leaf entries -> build src d (leaf_set entries key vh)
      | Branch (n, kids) ->
          let nb = nibble kh d in
          let old = match List.assoc_opt nb kids with Some c -> c | None -> null in
          let oldn = count src old in
          let ch = go (d + 1) old in
          let n' = n - oldn + count src ch in
          src.put (Node (Branch (n', kids_set kids nb ch)))
    end
  in
  go 0 h

let remove src h key =
  let kh = key_hash key in
  let rec go d h =
    if h = null then None
    else begin
      see src d;
      match node_of src h with
      | Leaf entries ->
          if List.mem_assoc key entries then
            let entries' = List.remove_assoc key entries in
            if entries' = [] then Some null else Some (src.put (Node (Leaf entries')))
          else None
      | Branch (n, kids) -> (
          match List.assoc_opt (nibble kh d) kids with
          | None -> None
          | Some old -> (
              match go (d + 1) old with
              | None -> None
              | Some ch ->
                  let n' = n - 1 in
                  if n' <= leaf_max then
                    (* Canonical collapse: a shrunken branch becomes the
                       leaf an insert-only history would have built. *)
                    let entries =
                      List.filter (fun (k, _) -> not (String.equal k key)) (to_list src h)
                    in
                    Some (build src d entries)
                  else Some (src.put (Node (Branch (n', kids_set kids (nibble kh d) ch))))))
    end
  in
  match go 0 h with Some h' -> h' | None -> h
