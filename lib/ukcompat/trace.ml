module Errno = Uksyscall.Fs_errno
module Sysno = Uksyscall.Sysno
module Shim = Uksyscall.Shim
module Binary = Uksyscall.Binary

type arg =
  | I of int
  | Str of string
  | Buf of int
  | Sa of string * int
  | Slot of int
  | Ptr of int

type expect = Any | Nonneg | Ret of int | Err of Errno.t

type entry = { name : string; args : arg list; expect : expect; blocking : bool }

type t = { tname : string; entries : entry list }

let name t = t.tname
let entries t = t.entries
let length t = List.length t.entries

(* --- text format -------------------------------------------------------- *)

let string_of_arg = function
  | I n -> string_of_int n
  | Str s -> Printf.sprintf "%S" s
  | Buf n -> Printf.sprintf "buf[%d]" n
  | Sa (ip, port) -> Printf.sprintf "sa[%s:%d]" ip port
  | Slot k -> Printf.sprintf "$%d" k
  | Ptr k -> Printf.sprintf "&%d" k

let string_of_expect = function
  | Any -> "*"
  | Nonneg -> "ok"
  | Ret n -> string_of_int n
  | Err e -> Errno.to_string e

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "trace %s\n" t.tname);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s(%s) = %s%s\n" e.name
           (String.concat ", " (List.map string_of_arg e.args))
           (string_of_expect e.expect)
           (if e.blocking then " !" else "")))
    t.entries;
  Buffer.contents b

(* Split an argument list on top-level commas (commas inside string
   literals don't count). *)
let split_args s =
  if String.trim s = "" then []
  else begin
    let out = ref [] in
    let buf = Buffer.create 16 in
    let in_q = ref false in
    let esc = ref false in
    String.iter
      (fun c ->
        if !esc then begin
          Buffer.add_char buf c;
          esc := false
        end
        else
          match c with
          | '\\' when !in_q ->
              Buffer.add_char buf c;
              esc := true
          | '"' ->
              Buffer.add_char buf c;
              in_q := not !in_q
          | ',' when not !in_q ->
              out := Buffer.contents buf :: !out;
              Buffer.clear buf
          | c -> Buffer.add_char buf c)
      s;
    out := Buffer.contents buf :: !out;
    List.rev_map String.trim !out
  end

let parse_arg s =
  let fail () = Error (Printf.sprintf "bad argument %S" s) in
  if s = "" then fail ()
  else if s.[0] = '"' then
    if String.length s >= 2 && s.[String.length s - 1] = '"' then
      try Ok (Str (Scanf.unescaped (String.sub s 1 (String.length s - 2)))) with _ -> fail ()
    else fail ()
  else if s.[0] = '$' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some k -> Ok (Slot k)
    | None -> fail ()
  else if s.[0] = '&' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some k -> Ok (Ptr k)
    | None -> fail ()
  else if String.length s > 4 && String.sub s 0 4 = "buf[" && s.[String.length s - 1] = ']' then
    match int_of_string_opt (String.sub s 4 (String.length s - 5)) with
    | Some n -> Ok (Buf n)
    | None -> fail ()
  else if String.length s > 3 && String.sub s 0 3 = "sa[" && s.[String.length s - 1] = ']' then begin
    let body = String.sub s 3 (String.length s - 4) in
    match String.rindex_opt body ':' with
    | Some i -> (
        let ip = String.sub body 0 i in
        match int_of_string_opt (String.sub body (i + 1) (String.length body - i - 1)) with
        | Some port -> Ok (Sa (ip, port))
        | None -> fail ())
    | None -> fail ()
  end
  else
    match int_of_string_opt s with Some n -> Ok (I n) | None -> fail ()

let parse_expect s =
  match s with
  | "*" -> Ok Any
  | "ok" -> Ok Nonneg
  | _ -> (
      match int_of_string_opt s with
      | Some n -> Ok (Ret n)
      | None -> (
          match Errno.of_string s with
          | Some e -> Ok (Err e)
          | None -> Error (Printf.sprintf "bad expectation %S" s)))

let parse_line lineno line =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let err msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let line, blocking =
    let l = String.trim line in
    if String.length l > 1 && String.sub l (String.length l - 2) 2 = " !" then
      (String.trim (String.sub l 0 (String.length l - 2)), true)
    else (l, false)
  in
  match (String.index_opt line '(', String.rindex_opt line ')') with
  | Some op, Some cl when op < cl -> (
      let name = String.trim (String.sub line 0 op) in
      let args_s = String.sub line (op + 1) (cl - op - 1) in
      let rest = String.trim (String.sub line (cl + 1) (String.length line - cl - 1)) in
      let* expect =
        if rest = "" then Ok Any
        else if String.length rest > 1 && rest.[0] = '=' then
          Result.map_error (Printf.sprintf "line %d: %s" lineno)
            (parse_expect (String.trim (String.sub rest 1 (String.length rest - 1))))
        else err "expected '= <ret>' after ')'"
      in
      if Sysno.number name = None then err (Printf.sprintf "unknown syscall %S" name)
      else
        let rec args acc = function
          | [] -> Ok (List.rev acc)
          | s :: rest -> (
              match parse_arg s with
              | Ok a -> args (a :: acc) rest
              | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
        in
        let* args = args [] (split_args args_s) in
        Ok { name; args; expect; blocking })
  | _ -> err "expected <syscall>(<args>) = <ret>"

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno tname acc = function
    | [] -> (
        match tname with
        | None -> Error "missing 'trace <name>' header"
        | Some tname -> Ok { tname; entries = List.rev acc })
    | line :: rest -> (
        let l = String.trim line in
        if l = "" || l.[0] = '#' then go (lineno + 1) tname acc rest
        else
          match tname with
          | None ->
              if String.length l > 6 && String.sub l 0 6 = "trace " then
                go (lineno + 1) (Some (String.trim (String.sub l 6 (String.length l - 6)))) acc rest
              else Error (Printf.sprintf "line %d: expected 'trace <name>' header" lineno)
          | Some _ -> (
              match parse_line lineno l with
              | Ok e -> go (lineno + 1) tname (e :: acc) rest
              | Error e -> Error e))
  in
  go 1 None [] lines

(* --- replay ------------------------------------------------------------- *)

type outcome = {
  results : int array;
  calls : int;  (** shim dispatches, including the arena mmap and retries *)
  retries : int;
  enosys : int;
  boundary_cycles : int;  (** calls x the dispatch mode's Table-1 cost *)
  interp_cycles : int;  (** binary-interpreter cycles outside the boundary *)
}

let arena_need e =
  List.fold_left
    (fun acc -> function
      | Str s -> acc + String.length s + 1
      | Buf n -> acc + n
      | Sa _ -> acc + 16
      | I _ | Slot _ | Ptr _ -> acc)
    0 e.args

(* Allocate the arena with a real mmap syscall, then bump-allocate and
   marshal every Str/Buf/Sa argument into process memory. Returns the
   per-entry allocation base (for [Ptr]) and a resolver turning an
   entry's args into raw register values given earlier results. *)
let prepare p t =
  let total = List.fold_left (fun acc e -> acc + arena_need e) 0 t.entries in
  let page = Process.page_size in
  let total = (total + page - 1) / page * page in
  let arena =
    if total = 0 then Ok 0
    else Personality.call p "mmap" [| 0; total; 3; 0x22; -1; 0 |]
  in
  match arena with
  | Error e -> Error (Printf.sprintf "arena mmap failed: %s" (Errno.to_string e))
  | Ok base ->
      let bump = ref base in
      let alloc n =
        let a = !bump in
        bump := !bump + n;
        a
      in
      let n = List.length t.entries in
      let bases = Array.make n 0 in
      let entry_args = Array.make n [||] in
      let proc = Personality.proc p in
      (try
         List.iteri
           (fun i e ->
             let vals =
               List.map
                 (fun a ->
                   match a with
                   | I v -> `Now v
                   | Slot k ->
                       if k < 0 || k >= i then
                         failwith (Printf.sprintf "entry %d: $%d out of range" i k)
                       else `Slot k
                   | Ptr k ->
                       if k < 0 || k >= i || bases.(k) = 0 then
                         failwith (Printf.sprintf "entry %d: &%d does not allocate" i k)
                       else `Now bases.(k)
                   | Str s ->
                       let a = alloc (String.length s + 1) in
                       if bases.(i) = 0 then bases.(i) <- a;
                       (match Process.write_mem proc ~addr:a (Bytes.of_string (s ^ "\000")) with
                       | Ok () -> ()
                       | Error e -> failwith (Errno.to_string e));
                       `Now a
                   | Buf len ->
                       let a = alloc len in
                       if bases.(i) = 0 then bases.(i) <- a;
                       `Now a
                   | Sa (ip, port) ->
                       let a = alloc 16 in
                       if bases.(i) = 0 then bases.(i) <- a;
                       let sa =
                         Personality.sockaddr_bytes (Uknetstack.Addr.Ipv4.of_string ip, port)
                       in
                       (match Process.write_mem proc ~addr:a sa with
                       | Ok () -> ()
                       | Error e -> failwith (Errno.to_string e));
                       `Now a)
                 e.args
             in
             entry_args.(i) <- Array.of_list vals)
           t.entries;
         Ok
           (fun i results ->
             Array.map (function `Now v -> v | `Slot k -> results.(k)) entry_args.(i))
       with Failure msg -> Error msg)

let check_expect i e result =
  let ok =
    match (e.expect, result) with
    | Any, _ -> true
    | Nonneg, Ok v -> v >= 0
    | Nonneg, Error _ -> false
    | Ret n, Ok v -> v = n
    | Ret _, Error _ -> false
    | Err want, Error got -> want = got
    | Err _, Ok _ -> false
  in
  if ok then Ok ()
  else
    Error
      (Printf.sprintf "entry %d (%s): expected %s, got %s" i e.name (string_of_expect e.expect)
         (match result with
         | Ok v -> string_of_int v
         | Error e -> Errno.to_string e))

let max_retries = 200_000

(* Issue one entry through the personality, retrying would-block results
   after a 1 µs sleep lets virtual time (and the network) make progress. *)
let issue ~retries p sysno args blocking =
  let rec go budget =
    match Personality.call_sysno p sysno args with
    | Error Errno.Eagain when blocking ->
        if budget = 0 then Error `Stuck
        else begin
          incr retries;
          Uksched.Sched.sleep_ns 1000.0;
          go (budget - 1)
        end
    | r -> Ok r
  in
  go max_retries

(* Prepare [t]'s arguments and return its replay step and outcome
   builder. [step i e sysno] issues entry [i] as [sysno] and records its
   result; it returns the result the caller sees, and whether the entry
   replayed as the trace expects. *)
let replay p t =
  let shim = Personality.shim p in
  let calls0 = Shim.calls_made shim in
  match prepare p t with
  | Error e -> Error e
  | Ok resolve ->
      let results = Array.make (List.length t.entries) 0 in
      let retries = ref 0 in
      let enosys0 = Shim.enosys_count shim in
      let step i e sysno =
        match issue ~retries p sysno (resolve i results) e.blocking with
        | Error `Stuck ->
            ( Error Errno.Eagain,
              Error (Printf.sprintf "entry %d (%s): still EAGAIN after %d retries" i e.name max_retries) )
        | Ok res ->
            results.(i) <- (match res with Ok v -> v | Error e -> Errno.to_code e);
            (res, check_expect i e res)
      in
      let outcome ~interp_cycles =
        let calls = Shim.calls_made shim - calls0 in
        {
          results;
          calls;
          retries = !retries;
          enosys = Shim.enosys_count shim - enosys0;
          boundary_cycles = calls * Shim.dispatch_cost (Shim.mode shim);
          interp_cycles;
        }
      in
      Ok (step, outcome)

let run p t =
  match replay p t with
  | Error e -> Error e
  | Ok (step, outcome) ->
      let rec go i = function
        | [] -> Ok (outcome ~interp_cycles:0)
        | e :: rest -> (
            match snd (step i e (Option.get (Sysno.number e.name))) with
            | Ok () -> go (i + 1) rest
            | Error m -> Error m)
      in
      go 0 t.entries

(* --- binary compilation ------------------------------------------------- *)

(* Each entry compiles to a short basic block of ordinary instructions
   (address computation, argument set-up) followed by the syscall
   instruction — enough text for the rewriter to have something to scan
   past, deterministic per entry index. *)
let pad_insns i =
  Binary.
    [ Mov (i land 7, (i + 1) land 7); Add (1, 2); Cmp (0, 1); Nop; Mov (2, 3); Add (3, 4); Nop ]

let to_binary t =
  let insns =
    List.concat
      (List.mapi
         (fun i e -> pad_insns i @ [ Binary.Syscall (Option.get (Sysno.number e.name)) ])
         t.entries)
    @ [ Binary.Ret ]
  in
  Binary.assemble insns

let run_binary p ~binary t =
  match replay p t with
  | Error e -> Error e
  | Ok (step, outcome) -> (
      let entries = Array.of_list t.entries in
      let n = Array.length entries in
      let site = ref 0 in
      let failure = ref None in
      let dispatch ~trap:_ ~sysno =
        let i = !site in
        incr site;
        if i >= n || !failure <> None then Error Errno.Einval
        else begin
          let e = entries.(i) in
          if sysno <> Option.get (Sysno.number e.name) then begin
            failure := Some (Printf.sprintf "site %d: binary has sysno %d, trace has %s" i sysno e.name);
            Error Errno.Einval
          end
          else begin
            let res, check = step i e sysno in
            (match check with Ok () -> () | Error m -> failure := Some m);
            res
          end
        end
      in
      let stats = Binary.execute_with ~clock:(Personality.clock p) ~dispatch binary in
      match !failure with
      | Some m -> Error m
      | None ->
          if !site <> n then
            Error (Printf.sprintf "binary executed %d syscall sites, trace has %d" !site n)
          else Ok (outcome ~interp_cycles:(stats.Binary.instructions - stats.Binary.syscalls)))
