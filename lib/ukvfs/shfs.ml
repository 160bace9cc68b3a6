type entry = { name : string; content : bytes }

type t = {
  clock : Uksim.Clock.t;
  table : entry list array; (* short chains by construction *)
  mutable count : int;
  open_handles : (int, entry) Hashtbl.t;
  mutable next_handle : int;
}

(* The whole point of SHFS: open is one hash and a short probe. *)
let hash_cost = 28
let probe_cost = 18
let read_base_cost = 30

let charge t c = Uksim.Clock.advance t.clock c

let djb2 s =
  let h = ref 5381 in
  String.iter (fun ch -> h := ((!h lsl 5) + !h + Char.code ch) land max_int) s;
  !h

let buckets = 1024 (* a power of two: [bucket_of] masks the hash *)

let create ~clock =
  {
    clock;
    table = Array.make buckets [];
    count = 0;
    open_handles = Hashtbl.create 32;
    next_handle = 1;
  }

let bucket_of t name = djb2 name land (Array.length t.table - 1)

let add t ~name content =
  let b = bucket_of t name in
  let existed = List.exists (fun e -> String.equal e.name name) t.table.(b) in
  t.table.(b) <-
    { name; content } :: List.filter (fun e -> not (String.equal e.name name)) t.table.(b);
  if not existed then t.count <- t.count + 1

type handle = int

let lookup t name =
  charge t hash_cost;
  let rec probe = function
    | [] -> None
    | e :: rest ->
        charge t probe_cost;
        if String.equal e.name name then Some e else probe rest
  in
  probe t.table.(bucket_of t name)

let open_direct t name =
  match lookup t name with
  | None -> Error Fs.Enoent
  | Some e ->
      let h = t.next_handle in
      t.next_handle <- h + 1;
      Hashtbl.replace t.open_handles h e;
      Ok h

let read_direct t h ~off ~len =
  charge t read_base_cost;
  match Hashtbl.find_opt t.open_handles h with
  | None -> Error Fs.Ebadf
  | Some e ->
      if off < 0 || len < 0 then Error Fs.Einval
      else begin
        let size = Bytes.length e.content in
        let n = max 0 (min len (size - off)) in
        charge t (Uksim.Cost.memcpy n);
        Ok (Bytes.sub e.content off n)
      end

let size_direct t h =
  match Hashtbl.find_opt t.open_handles h with
  | None -> 0
  | Some e -> Bytes.length e.content

let close_direct t h = Hashtbl.remove t.open_handles h
let entries t = t.count

let to_fs t =
  let base = Fs.not_supported "shfs" in
  {
    base with
    Fs.open_file =
      (fun path ~create ->
        if create then Error Fs.Enosys
        else
          let name = match Fs.split_path path with [ n ] -> n | _ -> path in
          open_direct t name);
    read = (fun h ~off ~len -> read_direct t h ~off ~len);
    close = (fun h -> close_direct t h);
    stat =
      (fun path ->
        let name = match Fs.split_path path with [ n ] -> n | _ -> path in
        match lookup t name with
        | Some e -> Ok { Fs.size = Bytes.length e.content; ftype = Fs.Regular }
        | None -> Error Fs.Enoent);
    readdir =
      (fun _ ->
        Ok
          (Array.to_list t.table
          |> List.concat_map (List.map (fun e -> e.name))
          |> List.sort compare));
    fsync = (fun _ -> Ok ());
  }
