type t = (string, Microlib.t) Hashtbl.t

let create () : t = Hashtbl.create 64

let add t (m : Microlib.t) =
  if Hashtbl.mem t m.name then
    invalid_arg (Printf.sprintf "Registry.add: duplicate micro-library %s" m.name);
  Hashtbl.replace t m.name m

let add_all t = List.iter (add t)
let find t name = Hashtbl.find_opt t name

let find_exn t name =
  match find t name with
  | Some m -> m
  | None -> raise Not_found


let closure t roots =
  let module S = Set.Make (String) in
  let exception Missing of string in
  let rec visit acc name =
    if S.mem name acc then acc
    else
      match find t name with
      | None -> raise (Missing name)
      | Some m -> List.fold_left visit (S.add name acc) (Microlib.dep_names m)
  in
  match List.fold_left visit S.empty roots with
  | s -> Ok (S.elements s)
  | exception Missing name -> Error name

let dep_graph t names =
  let module S = Set.Make (String) in
  let set = S.of_list names in
  let g = Ukgraph.Digraph.create () in
  List.iter
    (fun name ->
      match find t name with
      | None -> ()
      | Some m ->
          Ukgraph.Digraph.add_node g name;
          List.iter
            (fun dep ->
              if S.mem dep set then
                match find t dep with
                | Some callee ->
                    let w = List.length (Microlib.used_apis ~caller:m ~callee) in
                    Ukgraph.Digraph.add_edge ~weight:(max 1 w) g name dep
                | None -> ())
            (Microlib.dep_names m))
    names;
  g
