(** The pure merkle layer: a canonical hash-trie over the key's digest
    nibbles. Its shape is a function of the key set alone and every hash
    is an order-independent XOR fold, so two stores that applied the same
    updates in any order agree on the root hash bit for bit.

    Objects are addressed by structural hash, not by serialization: the
    codec (in {!Store}) may embed disk locations beside child refs
    without perturbing content addresses. *)

type hash = int

val null : hash
(** The empty tree. *)

type node =
  | Leaf of (string * hash) list  (** key -> blob hash, sorted by key *)
  | Branch of int * (int * hash) list
      (** subtree entry count; nibble -> child hash, sorted by nibble *)

type commit = { root : hash; parents : hash list; msg : string }

type obj =
  | Blob of string
  | Node of node
  | Commit of commit

(** The object source the trie operations run against: [get] resolves a
    hash (raising on corruption), [put] interns an object and returns its
    structural hash, and [depth_seen] records the deepest level an
    operation touched. *)
type src = {
  get : hash -> obj;
  put : obj -> hash;
  mutable depth_seen : int;
}

val hash_of_obj : obj -> hash
(** The structural hash: domain-separated by kind, independent of entry
    and parent order. *)

val find : src -> hash -> string -> hash option
(** The blob hash stored under a key in the subtree, if any. *)

val set : src -> hash -> string -> hash -> hash
(** The subtree with the key bound to a blob hash. *)

val remove : src -> hash -> string -> hash
(** The subtree without the key; the same hash when it was absent. *)

val to_list : src -> hash -> (string * hash) list
(** Every (key, blob hash) of the subtree, sorted by key. *)
