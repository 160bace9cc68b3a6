module S = Uknetstack.Stack
module C = Uktrace.Metric.Counter

type entry = { addr : int; value : string }

type t = {
  clock : Uksim.Clock.t;
  alloc : Ukalloc.Alloc.t;
  table : (string, entry) Hashtbl.t;
  lists : (string, string list ref) Hashtbl.t;
  core : int; (* tracepoint lane; the owning core under SMP *)
  group : Uktrace.Registry.group;
  commands : C.t;
  hits : C.t;
  misses : C.t;
}

(* Command-processing work besides allocation and hashing: dispatch
   table, argument parsing, reply formatting, dict bookkeeping — Redis
   spends a couple of thousand cycles per command outside the stack. *)
let cmd_cost = 2000
let hash_cost = 140

let charge t c = Uksim.Clock.advance t.clock c

let store_bytes t s =
  match Ukalloc.Alloc.uk_malloc t.alloc (max 16 (String.length s)) with
  | Some addr ->
      charge t (Uksim.Cost.memcpy (String.length s));
      Some { addr; value = s }
  | None -> None

let drop_entry t e = Ukalloc.Alloc.uk_free t.alloc e.addr

(* Redis allocates short-lived robj/SDS objects for each argument and
   the reply; routing them through ukalloc exposes allocator behaviour
   (Fig 18). *)
let with_cmd_objects t args f =
  let held =
    List.filter_map
      (fun a -> Ukalloc.Alloc.uk_malloc t.alloc (16 + String.length a))
      args
  in
  let r = f () in
  List.iter (Ukalloc.Alloc.uk_free t.alloc) held;
  r

(* The hot commands' bodies, shared by the generic and specialized
   dispatchers (each charges its own envelope around them). *)
let get t key =
  charge t hash_cost;
  match Hashtbl.find_opt t.table key with
  | Some e ->
      C.incr t.hits;
      charge t (Uksim.Cost.memcpy (String.length e.value));
      Resp.Bulk e.value
  | None ->
      C.incr t.misses;
      Resp.Null

let put t key value =
  match store_bytes t value with
  | None -> None
  | Some e ->
      (match Hashtbl.find_opt t.table key with Some old -> drop_entry t old | None -> ());
      Hashtbl.replace t.table key e;
      Some ()

let set t key value =
  charge t hash_cost;
  match put t key value with
  | None -> Resp.Error "OOM command not allowed when used memory > 'maxmemory'"
  | Some () -> Resp.Simple "OK"

let del t keys =
  charge t (hash_cost * List.length keys);
  Resp.Integer
    (List.fold_left
       (fun acc key ->
         match Hashtbl.find_opt t.table key with
         | Some e ->
             drop_entry t e;
             Hashtbl.remove t.table key;
             acc + 1
         | None -> acc)
       0 keys)

let incr t key =
  charge t hash_cost;
  let cur =
    match Hashtbl.find_opt t.table key with
    | Some e -> int_of_string_opt e.value
    | None -> Some 0
  in
  match cur with
  | None -> Resp.Error "ERR value is not an integer or out of range"
  | Some v -> (
      match put t key (string_of_int (v + 1)) with
      | None -> Resp.Error "OOM"
      | Some () -> Resp.Integer (v + 1))

let rec execute t args =
  Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~core:t.core ~cat:"ukapps"
    "resp_command" (fun () -> execute_untraced t args)

and execute_untraced t args =
  C.incr t.commands;
  charge t cmd_cost;
  with_cmd_objects t args @@ fun () ->
  let upper = String.uppercase_ascii in
  match args with
  | [] -> Resp.Error "ERR empty command"
  | cmd :: rest -> (
      match (upper cmd, rest) with
      | "PING", [] -> Resp.Simple "PONG"
      | "PING", [ msg ] -> Resp.Bulk msg
      | "SET", [ key; value ] -> set t key value
      | "GET", [ key ] -> get t key
      | "DEL", keys -> del t keys
      | "EXISTS", [ key ] ->
          charge t hash_cost;
          Resp.Integer (if Hashtbl.mem t.table key then 1 else 0)
      | "INCR", [ key ] -> incr t key
      | "LPUSH", key :: values when values <> [] ->
          charge t hash_cost;
          let l =
            match Hashtbl.find_opt t.lists key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace t.lists key l;
                l
          in
          List.iter (fun v -> l := v :: !l) values;
          Resp.Integer (List.length !l)
      | "LRANGE", [ key; a; b ] -> (
          charge t hash_cost;
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b ->
              let l = match Hashtbl.find_opt t.lists key with Some l -> !l | None -> [] in
              let n = List.length l in
              let b = if b < 0 then n + b else b in
              let selected =
                List.filteri (fun i _ -> i >= a && i <= b) l |> List.map (fun v -> Resp.Bulk v)
              in
              Resp.Array selected
          | _, _ -> Resp.Error "ERR value is not an integer or out of range")
      | "DBSIZE", [] -> Resp.Integer (Hashtbl.length t.table)
      | "FLUSHALL", [] ->
          Hashtbl.iter (fun _ e -> drop_entry t e) t.table;
          Hashtbl.reset t.table;
          Hashtbl.reset t.lists;
          Resp.Simple "OK"
      | _, _ -> Resp.Error (Printf.sprintf "ERR unknown command '%s'" cmd))

(* Specialized dispatch for the hot commands: no robj churn, no generic
   command table, no reply buffering — the in-place parser feeds a direct
   match whose real work (key hashing, value memcpy) is charged
   separately, so this envelope is just parse + dispatch glue. Redis's
   couple-of-thousand-cycle generic path shrinks to about a hundred. *)
let fast_cmd_cost = 120

let execute_fast t args =
  charge t fast_cmd_cost;
  let hot r =
    C.incr t.commands;
    r
  in
  match args with
  | [ g; key ] when g = "GET" || g = "get" -> hot (get t key)
  | [ s; key; value ] when s = "SET" || s = "set" -> hot (set t key value)
  | [ p ] when p = "PING" || p = "ping" -> hot (Resp.Simple "PONG")
  | [ d; key ] when d = "DEL" || d = "del" -> hot (del t [ key ])
  | [ i; key ] when i = "INCR" || i = "incr" -> hot (incr t key)
  | _ -> (* cold commands go through the generic engine *) execute_untraced t args

(* In-place RESP framing of one command ("*N\r\n$len\r\narg\r\n...") at
   [pos] in [buf[.., limit)]. Argument strings are materialized (they are
   keys and stored values — the app's objects, not payload frames). A
   malformed command is answered once and closes the connection, as
   Redis does. *)
let frame buf pos limit =
  let exception Incomplete in
  let exception Bad in
  (* A count is 1-18 ASCII decimal digits up to its "\r\n", read in
     place: no sign, base prefix or underscore passes, and no count can
     overflow. Returns the count and the offset of its "\r\n". *)
  let count p =
    let rec go i v =
      if i >= limit then raise Incomplete
      else
        match Bytes.get buf i with
        | '0' .. '9' as c when i - p < 18 -> go (i + 1) ((v * 10) + Char.code c - 48)
        | '\r' when i > p ->
            if i + 1 >= limit then raise Incomplete
            else if Bytes.get buf (i + 1) = '\n' then (v, i)
            else raise Bad
        | _ -> raise Bad
    in
    go p 0
  in
  try
    if pos >= limit then Serve.Partial
    else if Bytes.get buf pos <> '*' then raise Bad
    else begin
      let n, e = count (pos + 1) in
      if n > 64 then raise Bad;
      let p = ref (e + 2) in
      let args = ref [] in
      for _ = 1 to n do
        if !p >= limit then raise Incomplete;
        if Bytes.get buf !p <> '$' then raise Bad;
        let len, e = count (!p + 1) in
        let s = e + 2 in
        (* [s + len] could overflow; [limit - s] cannot. *)
        if len > limit - s - 2 then raise Incomplete;
        if not (Bytes.get buf (s + len) = '\r' && Bytes.get buf (s + len + 1) = '\n') then
          raise Bad;
        args := Bytes.sub_string buf s len :: !args;
        p := s + len + 2
      done;
      Serve.Frame (List.rev !args, !p)
    end
  with
  | Incomplete -> Serve.Partial
  | Bad -> Serve.Bad (Resp.encode (Resp.Error "ERR Protocol error"))

let handle t ~fast sink args =
  let reply =
    if fast then
      Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~core:t.core ~cat:"ukapps"
        "resp_command_fast" (fun () -> execute_fast t args)
    else execute t args
  in
  Serve.write sink (Resp.encode reply)

let mk ~clock ~alloc ~core ?share_with () =
  (* [share_with]: SMP workers serve one logical database — every worker
     reuses the first worker's key space (per-worker command counters stay
     separate). *)
  let table, lists =
    match share_with with
    | Some peer -> (peer.table, peer.lists)
    | None -> (Hashtbl.create 4096, Hashtbl.create 64)
  in
  let group = Uktrace.Registry.group ~subsystem:"ukapps" "resp" in
  let commands = Uktrace.Registry.counter group "commands" in
  let hits = Uktrace.Registry.counter group "hits" in
  let misses = Uktrace.Registry.counter group "misses" in
  { clock; alloc; table; lists; core; group; commands; hits; misses }

type make =
  clock:Uksim.Clock.t -> sched:Uksched.Sched.t -> stack:S.t -> alloc:Ukalloc.Alloc.t ->
  ?port:int -> ?core:int -> ?share_with:t -> unit -> t

let serve ~transport ~clock ~sched ~stack ~alloc ?(port = 6379) ?(core = 0) ?share_with () =
  let t = mk ~clock ~alloc ~core ?share_with () in
  Serve.start transport ~name:"redis" ~clock ~sched ~stack ~port ~frame
    ~handle:(handle t ~fast:(transport <> Serve.Socket));
  t

let create = serve ~transport:Serve.Socket

let source t = Uktrace.Registry.source t.group
let dbsize t = Hashtbl.length t.table

(* --- load client ------------------------------------------------------------ *)

type workload = Get | Set

(* Counts complete replies without materializing values. The state is
   tiny (bulk-body bytes still to skip, plus the current header line), so
   replies can be counted directly in the driver's ring buffer. Only the
   reply shapes the hot commands produce (simple/error/integer/bulk/null)
   are recognized; the client never issues array-valued commands. *)
let rscan () : Load.scanner =
  let skip = ref 0 and line = Buffer.create 16 in
  fun buf off len ~on_reply ->
    let i = ref off and limit = off + len in
    while !i < limit do
      if !skip > 0 then begin
        let n = min !skip (limit - !i) in
        skip := !skip - n;
        i := !i + n;
        if !skip = 0 then on_reply `Ok
      end
      else begin
        let c = Bytes.get buf !i in
        Buffer.add_char line c;
        i := !i + 1;
        let l = Buffer.length line in
        if l >= 2 && c = '\n' && Buffer.nth line (l - 2) = '\r' then begin
          let s = Buffer.contents line in
          Buffer.clear line;
          match s.[0] with
          | '-' -> on_reply `Err
          | '$' -> (
              match int_of_string_opt (String.sub s 1 (String.length s - 3)) with
              | Some n when n >= 0 -> skip := n + 2 (* body + CRLF *)
              | Some _ | None -> on_reply `Ok (* $-1 null *))
          | _ -> on_reply `Ok
        end
      end
    done;
    true

let client workload =
  let value = "xxx" in
  let command n =
    let key = Printf.sprintf "key:%06d" (n land 0xfff) in
    match workload with
    | Get -> Resp.encode_command [ "GET"; key ]
    | Set -> Resp.encode_command [ "SET"; key; value ]
  in
  {
    Load.name = "resp";
    requests = (fun ~conn:_ ~first j -> command (first + j));
    (* redis-benchmark runs on its own pinned core in the paper, so its
       costs only matter for pipelining depth; the netbuf client formats
       straight into pool netbufs and scans replies in place. *)
    socket = { request = 120; reply = 120 };
    netbuf = { request = 40; reply = 40 };
    scanner = rscan;
  }
