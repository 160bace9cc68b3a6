module Smap = Map.Make (String)
module Sset = Set.Make (String)

type t = {
  mutable adj : int Smap.t Smap.t; (* node -> successor -> weight *)
  mutable radj : Sset.t Smap.t; (* node -> predecessors *)
}

let create () = { adj = Smap.empty; radj = Smap.empty }

let add_node g n =
  if not (Smap.mem n g.adj) then begin
    g.adj <- Smap.add n Smap.empty g.adj;
    g.radj <- Smap.add n Sset.empty g.radj
  end

let add_edge ?(weight = 1) g a b =
  add_node g a;
  add_node g b;
  let succ = Smap.find a g.adj in
  let w = match Smap.find_opt b succ with Some w -> w + weight | None -> weight in
  g.adj <- Smap.add a (Smap.add b w succ) g.adj;
  g.radj <- Smap.add b (Sset.add a (Smap.find b g.radj)) g.radj

let mem_node g n = Smap.mem n g.adj

let mem_edge g a b =
  match Smap.find_opt a g.adj with
  | None -> false
  | Some succ -> Smap.mem b succ

let weight g a b =
  match Smap.find_opt a g.adj with
  | None -> 0
  | Some succ -> ( match Smap.find_opt b succ with Some w -> w | None -> 0)

let nodes g = Smap.fold (fun n _ acc -> n :: acc) g.adj [] |> List.rev

let succs g n =
  match Smap.find_opt n g.adj with
  | None -> []
  | Some succ -> Smap.fold (fun m _ acc -> m :: acc) succ [] |> List.rev

let preds g n =
  match Smap.find_opt n g.radj with
  | None -> []
  | Some set -> Sset.elements set

let n_nodes g = Smap.cardinal g.adj
let n_edges g = Smap.fold (fun _ succ acc -> acc + Smap.cardinal succ) g.adj 0
let total_weight g = Smap.fold (fun _ succ acc -> Smap.fold (fun _ w a -> a + w) succ acc) g.adj 0
let out_degree g n = List.length (succs g n)
let in_degree g n = List.length (preds g n)

let reachable g roots =
  let visited = ref Sset.empty in
  let rec visit n =
    if mem_node g n && not (Sset.mem n !visited) then begin
      visited := Sset.add n !visited;
      List.iter visit (succs g n)
    end
  in
  List.iter visit roots;
  let set = !visited in
  fun n -> Sset.mem n set

let reachable_set g roots =
  let p = reachable g roots in
  List.filter p (nodes g)

let topo_sort g =
  (* Depth-first with colouring; grey-edge hit exhibits a cycle. *)
  let state = Hashtbl.create 64 in (* 1 = grey, 2 = black *)
  let order = ref [] in
  let exception Cycle of string list in
  let rec prefix_until n = function
    | [] -> []
    | x :: rest -> if String.equal x n then [] else x :: prefix_until n rest
  in
  let rec visit path n =
    match Hashtbl.find_opt state n with
    | Some 2 -> ()
    | Some _ -> raise (Cycle (List.rev (n :: prefix_until n path)))
    | None ->
        Hashtbl.replace state n 1;
        List.iter (visit (n :: path)) (succs g n);
        Hashtbl.replace state n 2;
        order := n :: !order
  in
  try
    List.iter (visit []) (nodes g);
    (* !order has dependents first (post-order reversed); dependencies-first
       means successors (dependencies) come before the node. *)
    Ok (List.rev !order)
  with Cycle c -> Error c

let has_cycle g = match topo_sort g with Ok _ -> false | Error _ -> true

let transpose g =
  let t = create () in
  Smap.iter
    (fun a succ ->
      add_node t a;
      Smap.iter (fun b w -> add_edge ~weight:w t b a) succ)
    g.adj;
  t

let subgraph g p =
  let s = create () in
  Smap.iter
    (fun a succ ->
      if p a then begin
        add_node s a;
        Smap.iter (fun b w -> if p b then add_edge ~weight:w s a b) succ
      end)
    g.adj;
  s

let to_dot ?(name = "g") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" name);
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" n)) (nodes g);
  Smap.iter
    (fun a succ ->
      Smap.iter
        (fun b w ->
          Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%d\"];\n" a b w))
        succ)
    g.adj;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

