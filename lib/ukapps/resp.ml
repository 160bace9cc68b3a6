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

module Parser = struct
  type t = { buf : Buffer.t; mutable pos : int }

  let create () = { buf = Buffer.create 256; pos = 0 }

  let feed t b = Buffer.add_bytes t.buf b

  (* Find "\r\n" starting at [from]; None if incomplete. *)
  let find_crlf t from =
    let s = Buffer.contents t.buf in
    let n = String.length s in
    let rec go i = if i + 1 >= n then None else if s.[i] = '\r' && s.[i + 1] = '\n' then Some i else go (i + 1) in
    go from

  let line t =
    match find_crlf t t.pos with
    | None -> None
    | Some i ->
        let s = Buffer.contents t.buf in
        let l = String.sub s t.pos (i - t.pos) in
        t.pos <- i + 2;
        Some l

  exception Incomplete
  exception Bad of string

  let rec parse_value t =
    match line t with
    | None -> raise Incomplete
    | Some l ->
        if String.length l = 0 then raise (Bad "empty line")
        else begin
          let body = String.sub l 1 (String.length l - 1) in
          match l.[0] with
          | '+' -> Simple body
          | '-' -> Error body
          | ':' -> (
              match int_of_string_opt body with
              | Some i -> Integer i
              | None -> raise (Bad "bad integer"))
          | '$' -> (
              match int_of_string_opt body with
              | Some -1 -> Null
              | Some n when n >= 0 ->
                  let s = Buffer.contents t.buf in
                  if String.length s < t.pos + n + 2 then raise Incomplete
                  else begin
                    let v = String.sub s t.pos n in
                    if not (s.[t.pos + n] = '\r' && s.[t.pos + n + 1] = '\n') then
                      raise (Bad "bulk not terminated");
                    t.pos <- t.pos + n + 2;
                    Bulk v
                  end
              | Some _ | None -> raise (Bad "bad bulk length"))
          | '*' -> (
              match int_of_string_opt body with
              | Some -1 -> Null
              | Some n when n >= 0 ->
                  let rec collect acc k = if k = 0 then List.rev acc else collect (parse_value t :: acc) (k - 1) in
                  Array (collect [] n)
              | Some _ | None -> raise (Bad "bad array length"))
          | _ -> raise (Bad "unknown type byte")
        end

  let compact t =
    (* Drop consumed bytes once they dominate the buffer. *)
    if t.pos > 4096 && t.pos * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.pos <- 0
    end

  let next t =
    let saved = t.pos in
    match parse_value t with
    | v ->
        compact t;
        Ok (Some v)
    | exception Incomplete ->
        t.pos <- saved;
        Ok None
    | exception Bad e -> Error e

end
