type ty = Tint | Ttext

type literal = Lint of int | Ltext of string

type comparison = Eq | Ne | Lt | Gt | Le | Ge

type where = { wcol : string; wop : comparison; wval : literal }

type select_cols = All | Count | Cols of string list

type stmt =
  | Create_table of { table : string; columns : (string * ty) list }
  | Insert of { table : string; rows : literal list list }
  | Select of { cols : select_cols; table : string; where : where option }
  | Delete of { table : string; where : where option }
  | Begin
  | Commit

let compare_literal a b =
  match (a, b) with
  | Lint x, Lint y -> compare x y
  | Ltext x, Ltext y -> String.compare x y
  | Lint _, Ltext _ -> -1
  | Ltext _, Lint _ -> 1

(* --- lexer -------------------------------------------------------------- *)

type token =
  | Ident of string
  | Int of int
  | Str of string
  | Punct of char (* ( ) , ; * *)
  | Op of comparison
  | Eof

exception Syntax of string

let lex input =
  let n = String.length input in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' || c = ')' || c = ',' || c = ';' || c = '*' then begin
      push (Punct c);
      incr i
    end
    else if c = '=' then begin
      push (Op Eq);
      incr i
    end
    else if c = '<' then
      if !i + 1 < n && input.[!i + 1] = '=' then begin
        push (Op Le);
        i := !i + 2
      end
      else if !i + 1 < n && input.[!i + 1] = '>' then begin
        push (Op Ne);
        i := !i + 2
      end
      else begin
        push (Op Lt);
        incr i
      end
    else if c = '>' then
      if !i + 1 < n && input.[!i + 1] = '=' then begin
        push (Op Ge);
        i := !i + 2
      end
      else begin
        push (Op Gt);
        incr i
      end
    else if c = '!' && !i + 1 < n && input.[!i + 1] = '=' then begin
      push (Op Ne);
      i := !i + 2
    end
    else if c = '\'' then begin
      (* Single-quoted string, '' escapes a quote. *)
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then raise (Syntax "unterminated string literal")
        else if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      push (Str (Buffer.contents buf))
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && input.[!i + 1] >= '0' && input.[!i + 1] <= '9')
    then begin
      let start = !i in
      incr i;
      while !i < n && input.[!i] >= '0' && input.[!i] <= '9' do
        incr i
      done;
      match int_of_string_opt (String.sub input start (!i - start)) with
      | Some v -> push (Int v)
      | None -> raise (Syntax "bad integer literal")
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      incr i;
      while
        !i < n
        && (let c = input.[!i] in
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_')
      do
        incr i
      done;
      push (Ident (String.sub input start (!i - start)))
    end
    else raise (Syntax (Printf.sprintf "unexpected character %c" c))
  done;
  List.rev (Eof :: !toks)

(* --- parser ------------------------------------------------------------- *)

type cursor = { mutable toks : token list }

let peek c = match c.toks with t :: _ -> t | [] -> Eof

let advance c = match c.toks with _ :: rest -> c.toks <- rest | [] -> ()

let next c =
  let t = peek c in
  advance c;
  t

let kw_equal s kw = String.uppercase_ascii s = kw

let expect_kw c kw =
  match next c with
  | Ident s when kw_equal s kw -> ()
  | _ -> raise (Syntax (Printf.sprintf "expected %s" kw))

let expect_punct c p =
  match next c with
  | Punct q when q = p -> ()
  | _ -> raise (Syntax (Printf.sprintf "expected '%c'" p))

let ident c =
  match next c with
  | Ident s -> s
  | _ -> raise (Syntax "expected identifier")

let literal c =
  match next c with
  | Int v -> Lint v
  | Str s -> Ltext s
  | _ -> raise (Syntax "expected literal")

let rec comma_separated c elt =
  let first = elt c in
  match peek c with
  | Punct ',' ->
      advance c;
      first :: comma_separated c elt
  | _ -> [ first ]

let parse_where c =
  match peek c with
  | Ident s when kw_equal s "WHERE" ->
      advance c;
      let wcol = ident c in
      let wop = match next c with Op o -> o | _ -> raise (Syntax "expected comparison") in
      let wval = literal c in
      Some { wcol; wop; wval }
  | _ -> None

let column_def c =
  let name = ident c in
  let ty =
    match peek c with
    | Ident s when kw_equal s "INTEGER" || kw_equal s "INT" ->
        advance c;
        Tint
    | Ident s when kw_equal s "TEXT" || kw_equal s "VARCHAR" ->
        advance c;
        Ttext
    | _ -> Ttext
  in
  (* Swallow constraint keywords (PRIMARY KEY, NOT NULL). *)
  let rec skip () =
    match peek c with
    | Ident s
      when kw_equal s "PRIMARY" || kw_equal s "KEY" || kw_equal s "NOT" || kw_equal s "NULL" ->
        advance c;
        skip ()
    | _ -> ()
  in
  skip ();
  (name, ty)

let row_values c =
  expect_punct c '(';
  let vs = comma_separated c literal in
  expect_punct c ')';
  vs

let parse_stmt c =
  match next c with
  | Ident s when kw_equal s "CREATE" ->
      expect_kw c "TABLE";
      let table = ident c in
      expect_punct c '(';
      let columns = comma_separated c column_def in
      expect_punct c ')';
      Create_table { table; columns }
  | Ident s when kw_equal s "INSERT" ->
      expect_kw c "INTO";
      let table = ident c in
      (match peek c with
      | Punct '(' ->
          (* Optional column list — accepted and ignored (values must be
             in schema order). *)
          advance c;
          let _ = comma_separated c ident in
          expect_punct c ')'
      | _ -> ());
      expect_kw c "VALUES";
      let rows = comma_separated c row_values in
      Insert { table; rows }
  | Ident s when kw_equal s "SELECT" ->
      let cols =
        match peek c with
        | Punct '*' ->
            advance c;
            All
        | Ident f when kw_equal f "COUNT" ->
            advance c;
            expect_punct c '(';
            expect_punct c '*';
            expect_punct c ')';
            Count
        | _ -> Cols (comma_separated c ident)
      in
      expect_kw c "FROM";
      let table = ident c in
      let where = parse_where c in
      Select { cols; table; where }
  | Ident s when kw_equal s "DELETE" ->
      expect_kw c "FROM";
      let table = ident c in
      let where = parse_where c in
      Delete { table; where }
  | Ident s when kw_equal s "BEGIN" -> Begin
  | Ident s when kw_equal s "COMMIT" || kw_equal s "END" -> Commit
  | _ -> raise (Syntax "expected statement")

let parse input =
  match lex input with
  | exception Syntax e -> Error e
  | toks -> (
      let c = { toks } in
      match parse_stmt c with
      | exception Syntax e -> Error e
      | stmt -> (
          (* Optional trailing ';' then EOF. *)
          (match peek c with Punct ';' -> advance c | _ -> ());
          match peek c with
          | Eof -> Ok stmt
          | _ -> Error "trailing tokens after statement"))
