type t = { schema : Schema.t; values : (string, Kopt.value) Hashtbl.t }

type error =
  | Unknown_option of string
  | Type_mismatch of { option : string; value : Kopt.value }
  | Select_conflict of { selected : string; by : string }
  | Unmet_dependency of { option : string; depends : Expr.t }

let pp_error ppf = function
  | Unknown_option o -> Fmt.pf ppf "unknown option %s" o
  | Type_mismatch { option; value } ->
      Fmt.pf ppf "option %s cannot take value %a" option Kopt.pp_value value
  | Select_conflict { selected; by } ->
      Fmt.pf ppf "option %s explicitly disabled but selected by %s" selected by
  | Unmet_dependency { option; depends } ->
      Fmt.pf ppf "option %s enabled but dependency (%a) unmet" option Expr.pp depends

let error_to_string e = Fmt.str "%a" pp_error e

let bool_value values name =
  match Hashtbl.find_opt values name with Some (Kopt.Bool b) -> b | Some _ | None -> false

let resolve schema assigns =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let values = Hashtbl.create 64 in
  let explicit = Hashtbl.create 16 in
  (* Defaults first. *)
  List.iter (fun (o : Kopt.t) -> Hashtbl.replace values o.name o.default) (Schema.options schema);
  (* Explicit assignments override, after type checking. *)
  List.iter
    (fun (name, v) ->
      match Schema.find schema name with
      | None -> err (Unknown_option name)
      | Some o ->
          if Kopt.value_matches o.ty v then begin
            Hashtbl.replace values name v;
            Hashtbl.replace explicit name v
          end
          else err (Type_mismatch { option = name; value = v }))
    assigns;
  (* Propagate selects to a fixpoint (schemas are finite; each pass only
     flips options from n to y, so this terminates). *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (o : Kopt.t) ->
        if bool_value values o.name then
          List.iter
            (fun sel ->
              match Schema.find schema sel with
              | None -> () (* reported by Schema.check_closed *)
              | Some _ ->
                  if not (bool_value values sel) then begin
                    (match Hashtbl.find_opt explicit sel with
                    | Some (Kopt.Bool false) ->
                        err (Select_conflict { selected = sel; by = o.name })
                    | Some _ | None -> ());
                    Hashtbl.replace values sel (Kopt.Bool true);
                    changed := true
                  end)
            o.selects)
      (Schema.options schema)
  done;
  (* Dependency enforcement: enabled bools and explicitly-set options need
     their depends satisfied; defaulted options with unmet depends are
     silently reverted to their "off" state. *)
  let lookup = bool_value values in
  List.iter
    (fun (o : Kopt.t) ->
      let dep_ok = Expr.eval lookup o.depends in
      if not dep_ok then begin
        (* Explicitly disabling an option whose dependencies are unmet is
           fine ("# CONFIG_X is not set"); turning it on is not. *)
        let is_explicit_on =
          match Hashtbl.find_opt explicit o.name with
          | Some (Kopt.Bool false) | None -> false
          | Some _ -> true
        in
        let is_enabled_bool = o.ty = Kopt.Tbool && bool_value values o.name in
        if is_explicit_on || is_enabled_bool then
          err (Unmet_dependency { option = o.name; depends = o.depends })
      end)
    (Schema.options schema);
  match List.rev !errors with
  | [] -> Ok { schema; values }
  | es -> Error es


let get_value t name =
  match Hashtbl.find_opt t.values name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Config: unknown option %s" name)

let get_bool t name =
  match get_value t name with
  | Kopt.Bool b -> b
  | Kopt.Int _ | Kopt.String _ | Kopt.Choice _ ->
      invalid_arg (Printf.sprintf "Config.get_bool: %s is not boolean" name)

let get_int t name =
  match get_value t name with
  | Kopt.Int i -> i
  | Kopt.Bool _ | Kopt.String _ | Kopt.Choice _ ->
      invalid_arg (Printf.sprintf "Config.get_int: %s is not an int" name)

let get_choice t name =
  match get_value t name with
  | Kopt.Choice c -> c
  | Kopt.Bool _ | Kopt.Int _ | Kopt.String _ ->
      invalid_arg (Printf.sprintf "Config.get_choice: %s is not a choice" name)

(* Final value of every declared option, declaration order. *)
let assignments t =
  List.map (fun (o : Kopt.t) -> (o.name, get_value t o.name)) (Schema.options t.schema)

let to_dotconfig t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      let line =
        match v with
        | Kopt.Bool true -> Printf.sprintf "CONFIG_%s=y" name
        | Kopt.Bool false -> Printf.sprintf "# CONFIG_%s is not set" name
        | Kopt.Int i -> Printf.sprintf "CONFIG_%s=%d" name i
        | Kopt.String s -> Printf.sprintf "CONFIG_%s=%S" name s
        | Kopt.Choice c -> Printf.sprintf "CONFIG_%s=%s" name c
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (assignments t);
  Buffer.contents buf
