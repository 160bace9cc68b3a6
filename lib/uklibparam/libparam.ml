type value = Int of int | Bool of bool | String of string

let pp_value ppf = function
  | Int i -> Fmt.int ppf i
  | Bool b -> Fmt.bool ppf b
  | String s -> Fmt.string ppf s

type param = { doc : string; default : value; mutable current : value }

type t = { params : (string * string, param) Hashtbl.t }

let create () = { params = Hashtbl.create 32 }

let register t ~lib ~name ?(doc = "") default =
  let key = (lib, name) in
  if Hashtbl.mem t.params key then
    invalid_arg (Printf.sprintf "Libparam.register: duplicate %s.%s" lib name);
  Hashtbl.replace t.params key { doc; default; current = default }

let get t ~lib ~name =
  Option.map (fun p -> p.current) (Hashtbl.find_opt t.params (lib, name))

let get_int t ~lib ~name =
  match get t ~lib ~name with Some (Int i) -> Some i | Some _ | None -> None

let get_bool t ~lib ~name =
  match get t ~lib ~name with Some (Bool b) -> Some b | Some _ | None -> None

let get_string t ~lib ~name =
  match get t ~lib ~name with Some (String s) -> Some s | Some _ | None -> None

(* "64", "16K", "32M", "1G" *)
let parse_int s =
  let n = String.length s in
  if n = 0 then None
  else begin
    let mult, digits =
      match s.[n - 1] with
      | 'K' | 'k' -> (1024, String.sub s 0 (n - 1))
      | 'M' | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    Option.map (fun v -> v * mult) (int_of_string_opt digits)
  end

let parse_bool = function
  | "1" | "on" | "true" | "yes" -> Some true
  | "0" | "off" | "false" | "no" -> Some false
  | _ -> None

let apply t token =
  match String.index_opt token '=' with
  | None -> Error (Printf.sprintf "missing '=' in %S" token)
  | Some eq -> (
      let lhs = String.sub token 0 eq in
      let rhs = String.sub token (eq + 1) (String.length token - eq - 1) in
      match String.index_opt lhs '.' with
      | None -> Error (Printf.sprintf "parameter %S is not of the form lib.param" lhs)
      | Some dot -> (
          let lib = String.sub lhs 0 dot in
          let name = String.sub lhs (dot + 1) (String.length lhs - dot - 1) in
          match Hashtbl.find_opt t.params (lib, name) with
          | None -> Error (Printf.sprintf "unknown parameter %s.%s" lib name)
          | Some p -> (
              match p.default with
              | Int _ -> (
                  match parse_int rhs with
                  | Some v ->
                      p.current <- Int v;
                      Ok ()
                  | None -> Error (Printf.sprintf "%s.%s expects an integer" lib name))
              | Bool _ -> (
                  match parse_bool rhs with
                  | Some v ->
                      p.current <- Bool v;
                      Ok ()
                  | None -> Error (Printf.sprintf "%s.%s expects a boolean" lib name))
              | String _ ->
                  p.current <- String rhs;
                  Ok ())))

let parse t cmdline =
  let tokens = List.filter (fun s -> s <> "") (String.split_on_char ' ' cmdline) in
  let rec go = function
    | [] -> Ok []
    | "--" :: rest -> Ok rest
    | tok :: rest -> (
        match apply t tok with
        | Ok () -> go rest
        | Error e -> Error e)
  in
  go tokens

let usage t =
  let buf = Buffer.create 128 in
  List.iter
    (fun ((lib, name), p) ->
      Buffer.add_string buf
        (Fmt.str "%-24s %a (default %a) %s\n"
           (Printf.sprintf "%s.%s" lib name)
           pp_value p.current pp_value p.default p.doc))
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.params [] |> List.sort compare);
  Buffer.contents buf
