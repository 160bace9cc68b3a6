type t = {
  table : (string, Kopt.t) Hashtbl.t;
  mutable order : string list; (* reversed declaration order *)
}

let create () = { table = Hashtbl.create 64; order = [] }

let add t (o : Kopt.t) =
  if Hashtbl.mem t.table o.name then
    invalid_arg (Printf.sprintf "Schema.add: duplicate option %s" o.name);
  Hashtbl.replace t.table o.name o;
  t.order <- o.name :: t.order

let add_all t = List.iter (add t)
let find t name = Hashtbl.find_opt t.table name
let options t = List.rev_map (fun n -> Hashtbl.find t.table n) t.order

let menu_tree t =
  let module M = Map.Make (struct
    type nonrec t = string list
    let compare = compare
  end) in
  let groups =
    List.fold_left
      (fun acc (o : Kopt.t) ->
        let cur = match M.find_opt o.menu acc with Some l -> l | None -> [] in
        M.add o.menu (o :: cur) acc)
      M.empty (options t)
  in
  M.fold (fun path opts acc -> (path, List.rev opts) :: acc) groups [] |> List.rev

let check_closed t =
  let missing = ref [] in
  let is_bool name =
    match find t name with Some { ty = Kopt.Tbool; _ } -> true | Some _ | None -> false
  in
  let check_name src name =
    if not (is_bool name) then
      missing := Printf.sprintf "%s references undeclared bool option %s" src name :: !missing
  in
  List.iter
    (fun (o : Kopt.t) ->
      List.iter (check_name o.name) (Expr.vars o.depends);
      List.iter (check_name o.name) o.selects)
    (options t);
  match !missing with [] -> Ok () | l -> Error (List.rev l)
