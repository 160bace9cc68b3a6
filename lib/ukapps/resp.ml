type value =
  | Simple of string
  | Error of string
  | Integer of int
  | Bulk of string
  | Null
  | Array of value list

let rec encode = function
  | Simple s -> "+" ^ s ^ "\r\n"
  | Error s -> "-" ^ s ^ "\r\n"
  | Integer i -> ":" ^ string_of_int i ^ "\r\n"
  | Bulk s -> Printf.sprintf "$%d\r\n%s\r\n" (String.length s) s
  | Null -> "$-1\r\n"
  | Array vs ->
      Printf.sprintf "*%d\r\n%s" (List.length vs) (String.concat "" (List.map encode vs))

let encode_command args = encode (Array (List.map (fun a -> Bulk a) args))
