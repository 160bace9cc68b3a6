type table = {
  schema : (string * Sql.ty) list;
  data : Btree.t;
  mutable next_rowid : int;
}

type result_set =
  | Done
  | Affected of int
  | Count of int
  | Rows of { columns : string list; rows : Sql.literal list list }

type t = {
  clock : Uksim.Clock.t;
  alloc : Ukalloc.Alloc.t;
  journal : (Ukvfs.Vfs.t * string) option;
  per_stmt_overhead : int;
  tables : (string, table) Hashtbl.t;
  mutable jfd : Ukvfs.Vfs.fd option;
  mutable joff : int;
  mutable in_txn : bool;
  txn_buffer : Buffer.t;
  mutable stmts : int;
}

(* SQLite-grade per-statement work: tokenize, parse, plan, VM dispatch. *)
let parse_cost = 2200
let row_cost = 240

let charge t c = Uksim.Clock.advance t.clock c

let create ~clock ~alloc ?journal ?(per_stmt_overhead = 0) () =
  {
    clock;
    alloc;
    journal;
    per_stmt_overhead;
    tables = Hashtbl.create 8;
    jfd = None;
    joff = 0;
    in_txn = false;
    txn_buffer = Buffer.create 1024;
    stmts = 0;
  }

(* --- row serialization --------------------------------------------------- *)

let encode_row literals =
  let buf = Buffer.create 64 in
  List.iter
    (fun (l : Sql.literal) ->
      match l with
      | Sql.Lint v ->
          Buffer.add_char buf 'i';
          Buffer.add_string buf (Printf.sprintf "%020d" v)
      | Sql.Ltext s ->
          Buffer.add_char buf 't';
          Buffer.add_string buf (Printf.sprintf "%08d" (String.length s));
          Buffer.add_string buf s)
    literals;
  Buffer.to_bytes buf

let decode_row b =
  let n = Bytes.length b in
  let rec go pos acc =
    if pos >= n then Ok (List.rev acc)
    else
      match Bytes.get b pos with
      | 'i' ->
          if pos + 21 > n then Error "row: truncated int"
          else begin
            match int_of_string_opt (String.trim (Bytes.sub_string b (pos + 1) 20)) with
            | Some v -> go (pos + 21) (Sql.Lint v :: acc)
            | None -> Error "row: bad int"
          end
      | 't' ->
          if pos + 9 > n then Error "row: truncated text header"
          else begin
            match int_of_string_opt (Bytes.sub_string b (pos + 1) 8) with
            | Some len when pos + 9 + len <= n ->
                go (pos + 9 + len) (Sql.Ltext (Bytes.sub_string b (pos + 9) len) :: acc)
            | Some _ | None -> Error "row: bad text length"
          end
      | _ -> Error "row: unknown column tag"
  in
  go 0 []

let rowid_key id = Printf.sprintf "r%010d" id

(* --- journaling ----------------------------------------------------------- *)

let journal_append t line =
  match t.journal with
  | None -> Ok ()
  | Some (vfs, path) -> (
      let ensure_fd () =
        match t.jfd with
        | Some fd -> Ok fd
        | None -> (
            match Ukvfs.Vfs.open_file vfs path ~create:true () with
            | Ok fd ->
                t.jfd <- Some fd;
                Ok fd
            | Error e -> Error (Ukvfs.Fs.errno_to_string e))
      in
      match ensure_fd () with
      | Error e -> Error e
      | Ok fd -> (
          let data = Bytes.of_string line in
          match Ukvfs.Vfs.pwrite vfs fd ~off:t.joff data with
          | Ok n ->
              t.joff <- t.joff + n;
              Ok ()
          | Error e -> Error (Ukvfs.Fs.errno_to_string e)))

let journal_sync t =
  match (t.journal, t.jfd) with
  | Some (vfs, _), Some fd -> (
      match Ukvfs.Vfs.fsync vfs fd with
      | Ok () -> Ok ()
      | Error e -> Error (Ukvfs.Fs.errno_to_string e))
  | (Some _ | None), _ -> Ok ()

let record t stmt_text =
  if t.in_txn then begin
    Buffer.add_string t.txn_buffer stmt_text;
    Buffer.add_char t.txn_buffer '\n';
    Ok ()
  end
  else
    match journal_append t (stmt_text ^ "\n") with
    | Ok () -> journal_sync t
    | Error e -> Error e

(* --- execution ------------------------------------------------------------ *)

let find_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> Ok tbl
  | None -> Error (Printf.sprintf "no such table: %s" name)

let typecheck schema row =
  if List.length schema <> List.length row then Error "value count does not match column count"
  else if
    List.for_all2
      (fun ((_, ty) : string * Sql.ty) (l : Sql.literal) ->
        match (ty, l) with
        | Sql.Tint, Sql.Lint _ -> true
        | Sql.Ttext, Sql.Ltext _ -> true
        | Sql.Tint, Sql.Ltext _ | Sql.Ttext, Sql.Lint _ -> false)
      schema row
  then Ok ()
  else Error "type mismatch"

let eval_where (where : Sql.where option) schema row =
  match where with
  | None -> Ok true
  | Some { wcol; wop; wval } -> (
      let rec idx i = function
        | [] -> Error (Printf.sprintf "no such column: %s" wcol)
        | (c, _) :: rest -> if String.equal c wcol then Ok i else idx (i + 1) rest
      in
      match idx 0 schema with
      | Error e -> Error e
      | Ok i ->
          let v = List.nth row i in
          let c = Sql.compare_literal v wval in
          Ok
            (match wop with
            | Sql.Eq -> c = 0
            | Sql.Ne -> c <> 0
            | Sql.Lt -> c < 0
            | Sql.Gt -> c > 0
            | Sql.Le -> c <= 0
            | Sql.Ge -> c >= 0))

let scan t tbl where f =
  (* Full table scan (no secondary indexes, like the paper's INSERT/COUNT
     workloads need). *)
  let err = ref None in
  (* Unknown WHERE columns are errors even on empty tables. *)
  (match where with
  | Some { Sql.wcol; _ } when not (List.mem_assoc wcol tbl.schema) ->
      err := Some (Printf.sprintf "no such column: %s" wcol)
  | Some _ | None -> ());
  Btree.iter tbl.data (fun key value ->
      if !err = None then begin
        charge t row_cost;
        match decode_row value with
        | Error e -> err := Some e
        | Ok row -> (
            match eval_where where tbl.schema row with
            | Error e -> err := Some e
            | Ok true -> f key row
            | Ok false -> ())
      end);
  match !err with None -> Ok () | Some e -> Error e

let project cols schema row =
  match cols with
  | Sql.All -> Ok row
  | Sql.Count -> Ok row
  | Sql.Cols names ->
      let pick name =
        let rec idx i = function
          | [] -> Error (Printf.sprintf "no such column: %s" name)
          | (c, _) :: rest -> if String.equal c name then Ok (List.nth row i) else idx (i + 1) rest
        in
        idx 0 schema
      in
      let rec go = function
        | [] -> Ok []
        | n :: rest -> (
            match pick n with
            | Error e -> Error e
            | Ok v -> ( match go rest with Ok vs -> Ok (v :: vs) | Error e -> Error e))
      in
      go names

let exec_stmt t text (stmt : Sql.stmt) =
  match stmt with
  | Sql.Begin ->
      t.in_txn <- true;
      Buffer.clear t.txn_buffer;
      Ok Done
  | Sql.Commit -> (
      if not t.in_txn then Ok Done
      else begin
        t.in_txn <- false;
        match journal_append t (Buffer.contents t.txn_buffer) with
        | Ok () -> (
            match journal_sync t with
            | Ok () -> Ok Done
            | Error e -> Error e)
        | Error e -> Error e
      end)
  | Sql.Create_table { table; columns } ->
      if Hashtbl.mem t.tables table then Error (Printf.sprintf "table %s already exists" table)
      else if columns = [] then Error "a table needs at least one column"
      else begin
        Hashtbl.replace t.tables table
          {
            schema = columns;
            data = Btree.create ~clock:t.clock ~alloc:t.alloc ~order:32 ();
            next_rowid = 1;
          };
        match record t text with Ok () -> Ok Done | Error e -> Error e
      end
  | Sql.Insert { table; rows } -> (
      match find_table t table with
      | Error e -> Error e
      | Ok tbl -> (
          let rec insert_all = function
            | [] -> Ok ()
            | row :: rest -> (
                match typecheck tbl.schema row with
                | Error e -> Error e
                | Ok () -> (
                    let encoded = encode_row row in
                    charge t (Uksim.Cost.memcpy (Bytes.length encoded));
                    let key = rowid_key tbl.next_rowid in
                    match Btree.insert tbl.data ~key ~value:encoded with
                    | Error `Oom -> Error "out of memory"
                    | Ok () ->
                        tbl.next_rowid <- tbl.next_rowid + 1;
                        insert_all rest))
          in
          match insert_all rows with
          | Error e -> Error e
          | Ok () -> (
              match record t text with
              | Ok () -> Ok (Affected (List.length rows))
              | Error e -> Error e)))
  | Sql.Select { cols; table; where } -> (
      match find_table t table with
      | Error e -> Error e
      | Ok tbl -> (
          let out = ref [] in
          let n = ref 0 in
          match
            scan t tbl where (fun _key row ->
                incr n;
                match cols with
                | Sql.Count -> ()
                | Sql.All | Sql.Cols _ -> (
                    match project cols tbl.schema row with
                    | Ok r -> out := r :: !out
                    | Error _ -> ()))
          with
          | Error e -> Error e
          | Ok () -> (
              match cols with
              | Sql.Count -> Ok (Count !n)
              | Sql.All -> Ok (Rows { columns = List.map fst tbl.schema; rows = List.rev !out })
              | Sql.Cols names -> Ok (Rows { columns = names; rows = List.rev !out }))))
  | Sql.Delete { table; where } -> (
      match find_table t table with
      | Error e -> Error e
      | Ok tbl -> (
          let victims = ref [] in
          match scan t tbl where (fun key _row -> victims := key :: !victims) with
          | Error e -> Error e
          | Ok () ->
              List.iter (fun key -> ignore (Btree.delete tbl.data key)) !victims;
              (match record t text with
              | Ok () -> Ok (Affected (List.length !victims))
              | Error e -> Error e)))

(* SQLite allocates dozens of short-lived buffers per statement (token
   arena, parse tree, VDBE program, cursors) with statement-dependent
   sizes. Routing them through ukalloc is what exposes allocator
   behaviour in Figs 16/17: first-fit allocators accumulate stranded
   free blocks as request sizes wander. *)
let scratch_sizes i =
  [ 128 + (16 * (i mod 7)); 256 + (16 * (i mod 13)); 512 + (16 * (i mod 5));
    96 + (16 * (i mod 11)); 192 + (16 * (i mod 3)); 384 + (16 * (i mod 17)) ]

let with_scratch t f =
  let held =
    List.filter_map (fun size -> Ukalloc.Alloc.uk_malloc t.alloc size) (scratch_sizes t.stmts)
  in
  let r = f () in
  List.iter (Ukalloc.Alloc.uk_free t.alloc) held;
  r

let exec t text =
  t.stmts <- t.stmts + 1;
  charge t (parse_cost + t.per_stmt_overhead);
  match Sql.parse text with
  | Error e -> Error ("syntax error: " ^ e)
  | Ok stmt -> with_scratch t (fun () -> exec_stmt t text stmt)

