(* The second stateful fleet workload: a line-protocol front-end over
   {!Ukstore.Store} — every mutation runs against the crash-consistent
   merkle store, so a served image that loses power recovers to its last
   acknowledged COMMIT on the next boot.

   Wire protocol (one request per line, fixed 20-byte replies so
   {!Load} counts boundaries by byte arithmetic, split-proof like
   Infer's):

     SET <key> <value>      -> "OK <root16>\n"     new working-root hash
     GET <key>              -> "OK <blob16>\n"     value's content hash
                               "NF <zero16>\n"     absent
     DEL <key>              -> "OK <root16>\n" | "NF <zero16>\n"
     COMMIT                 -> "OK <commit16>\n"   durable on return
     ROOT                   -> "OK <root16>\n"

   GET answers with the value's content address rather than its bytes —
   same modeling choice as Infer's output digest: the reply stays
   fixed-size while still proving end-to-end which
   value was read. 'N' (not found) is a negative answer, not an error;
   only 'E' counts against the error budget. *)

module St = Ukstore.Store

let parse_cost = 150 (* socket path: line materialization + field parse *)
let fast_parse_cost = 50 (* netbuf path: in-place scan of the request line *)

let reply_len = 3 + 16 + 1 (* "OK <hash16>\n" *)

type stats = {
  requests : int;
  sets : int;
  gets : int;
  dels : int;
  commits : int;
  errors : int;
  bytes_out : int;
}

let zero_stats =
  { requests = 0; sets = 0; gets = 0; dels = 0; commits = 0; errors = 0; bytes_out = 0 }

type t = {
  clock : Uksim.Clock.t;
  core : int;
  store : St.t;
  commit_every : int; (* auto-commit period in mutations; 0 = explicit only *)
  mutable muts : int; (* mutations since last commit *)
  mutable st : stats;
}

let charge t c = Uksim.Clock.advance t.clock c
let stats t = t.st
let store t = t.store
let state_hash t = St.content_hash t.store

let reply_line status h = Printf.sprintf "%s %016x\n" status h
let ok_reply h = reply_line "OK" h
let nf_reply = reply_line "NF" 0
let er_reply = reply_line "ER" 0

let mk ~clock ?(core = 0) ?(commit_every = 0) ~store () =
  { clock; core; store; commit_every; muts = 0; st = zero_stats }

let do_commit t =
  Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~core:t.core ~cat:"ukapps"
    "store_commit" (fun () ->
      match St.commit t.store () with
      | Ok h ->
          t.muts <- 0;
          t.st <- { t.st with commits = t.st.commits + 1 };
          ok_reply h
      | Error _ ->
          t.st <- { t.st with errors = t.st.errors + 1 };
          er_reply)

let after_mutation t =
  t.muts <- t.muts + 1;
  if t.commit_every > 0 && t.muts >= t.commit_every then ignore (do_commit t)

let execute t line =
  let r =
    match String.split_on_char ' ' line with
    | [ "SET"; k; v ] -> (
        t.st <- { t.st with sets = t.st.sets + 1 };
        match St.set t.store k v with
        | Ok () ->
            after_mutation t;
            ok_reply (St.content_hash t.store)
        | Error _ ->
            t.st <- { t.st with errors = t.st.errors + 1 };
            er_reply)
    | [ "GET"; k ] -> (
        t.st <- { t.st with gets = t.st.gets + 1 };
        match St.get t.store k with
        | Ok (Some v) -> ok_reply (Ukvfs.Digest.string_hash v)
        | Ok None -> nf_reply
        | Error _ ->
            t.st <- { t.st with errors = t.st.errors + 1 };
            er_reply)
    | [ "DEL"; k ] -> (
        t.st <- { t.st with dels = t.st.dels + 1 };
        match St.del t.store k with
        | Ok true ->
            after_mutation t;
            ok_reply (St.content_hash t.store)
        | Ok false -> nf_reply
        | Error _ ->
            t.st <- { t.st with errors = t.st.errors + 1 };
            er_reply)
    | [ "COMMIT" ] -> do_commit t
    | [ "ROOT" ] -> ok_reply (St.content_hash t.store)
    | _ ->
        t.st <- { t.st with errors = t.st.errors + 1 };
        er_reply
  in
  t.st <- { t.st with requests = t.st.requests + 1; bytes_out = t.st.bytes_out + reply_len };
  r

(* Server-side seeding: [n] deterministic keys, committed durable — the
   fleet image preps its disk with this before first boot. *)
let populate t ?(value_len = 32) n =
  for i = 0 to n - 1 do
    let k = Printf.sprintf "k%05d" i in
    let v = String.init value_len (fun j -> Char.chr (97 + ((i + j) mod 26))) in
    match St.set t.store k v with
    | Ok () -> ()
    | Error e -> invalid_arg ("Store.populate: " ^ Ukvfs.Fs.errno_to_string e)
  done;
  match St.commit t.store ~msg:"populate" () with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Store.populate commit: " ^ Ukvfs.Fs.errno_to_string e)

(* --- serving ------------------------------------------------------------------ *)

let serve ~transport ~clock ~sched ~stack ?(port = 7000) ?core ?commit_every ~store () =
  let t = mk ~clock ?core ?commit_every ~store () in
  let cost = if transport = Serve.Socket then parse_cost else fast_parse_cost in
  Serve.start transport ~name:"store" ~clock ~sched ~stack ~port ~frame:Serve.line
    ~handle:(fun sink line ->
      charge t cost;
      (* Every reply leaves on its own: the protocol has no batching. *)
      Serve.write sink (execute t line);
      Serve.flush sink);
  t

let create = serve ~transport:Serve.Socket
let create_fast = serve ~transport:(Serve.Netbuf { rtc = true })

(* --- load generation -------------------------------------------------------- *)

(* The op mix: a seeded per-connection stream of SET/GET/DEL over a
   bounded keyspace, [write_frac] of them mutations, one COMMIT every
   [commit_every] requests (0 = none — the server may auto-commit
   instead). Deterministic per (seed, connection). *)
let op_line rng ~ci ~j ~write_frac ~keyspace ~commit_every =
  if commit_every > 0 && j mod commit_every = commit_every - 1 then "COMMIT\n"
  else begin
    let k = Printf.sprintf "k%05d" (Uksim.Rng.int rng keyspace) in
    if Uksim.Rng.float rng 1.0 < write_frac then
      Printf.sprintf "SET %s w%d-%d-%d\n" k ci j (Uksim.Rng.int rng 1000)
    else Printf.sprintf "GET %s\n" k
  end

let client ?(write_frac = 0.5) ?(keyspace = 512) ?(commit_every = 0) ?(seed = 0x57012E) () =
  Load.fixed ~name:"store" ~reply_len (fun ~conn:ci ~first:_ ->
      let rng = Uksim.Rng.create (seed + ci) in
      fun j -> op_line rng ~ci ~j ~write_frac ~keyspace ~commit_every)
