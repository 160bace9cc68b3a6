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
     COMMIT                 -> "OK <commit16>\n"   durable when sent
     ROOT                   -> "OK <root16>\n"

   GET answers with the value's content address rather than its bytes —
   same modeling choice as Infer's output digest: the reply stays
   fixed-size while still proving end-to-end which
   value was read. 'N' (not found) is a negative answer, not an error;
   only 'E' counts against the error budget.

   COMMITs are group commits: the handler only joins the next group and
   holds the COMMIT's place in the reply stream, so the core keeps
   serving while the journal record is written. A pinned committer
   thread per store, woken by the block device's completion interrupt,
   publishes each record and answers its COMMITs. *)

module St = Ukstore.Store

let parse_cost = 150 (* socket path: line materialization + field parse *)
let fast_parse_cost = 50 (* netbuf path: in-place scan of the request line *)

let reply_len = 3 + 16 + 1 (* "OK <hash16>\n" *)

type t = { clock : Uksim.Clock.t; core : int; store : St.t }

let charge t c = Uksim.Clock.advance t.clock c
let state_hash t = St.content_hash t.store

let reply_line status h = Printf.sprintf "%s %016x\n" status h
let ok_reply h = reply_line "OK" h
let nf_reply = reply_line "NF" 0
let er_reply = reply_line "ER" 0

(* Every command but COMMIT, answered at once. *)
let execute t = function
  | [ "SET"; k; v ] -> (
      match St.set t.store k v with
      | Ok () -> ok_reply (St.content_hash t.store)
      | Error _ -> er_reply)
  | [ "GET"; k ] -> (
      match St.get t.store k with
      | Ok (Some v) -> ok_reply (Ukvfs.Digest.string_hash v)
      | Ok None -> nf_reply
      | Error _ -> er_reply)
  | [ "DEL"; k ] -> (
      match St.del t.store k with
      | Ok true -> ok_reply (St.content_hash t.store)
      | Ok false -> nf_reply
      | Error _ -> er_reply)
  | [ "ROOT" ] -> ok_reply (St.content_hash t.store)
  | _ -> er_reply

(* Server-side seeding: [n] deterministic keys, committed durable. *)
let populate t n =
  for i = 0 to n - 1 do
    let k = Printf.sprintf "k%05d" i in
    let v = String.init 32 (fun j -> Char.chr (97 + ((i + j) mod 26))) in
    match St.set t.store k v with
    | Ok () -> ()
    | Error e -> invalid_arg ("Store.populate: " ^ Ukvfs.Fs.errno_to_string e)
  done;
  match St.commit t.store ~msg:"populate" () with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Store.populate commit: " ^ Ukvfs.Fs.errno_to_string e)

(* --- serving ------------------------------------------------------------------ *)

let serve ~transport ~clock ~sched ~stack ?(port = 7000) ?(core = 0) ~store () =
  let t = { clock; core; store } in
  let cost = if transport = Serve.Socket then parse_cost else fast_parse_cost in
  (* The committer: woken when a group is ready to start or its record
     completes, it runs in thread context, so its replies enter TCP the
     way every other reply does, never from the completion interrupt. *)
  let committer =
    Uksched.Sched.spawn sched ~name:"store-committer" ~daemon:true ~pinned:true (fun () ->
        let rec loop () =
          Uktrace.Tracer.span Uktrace.Tracer.default clock ~core:t.core ~cat:"ukapps"
            "store_commit" (fun () -> ignore (St.reap store));
          Uksched.Sched.block ();
          loop ()
        in
        loop ())
  in
  St.set_committer store (Some (fun () -> Uksched.Sched.wake sched committer));
  Serve.start transport ~name:"store" ~clock ~sched ~stack ~port ~frame:Serve.line
    ~handle:(fun sink line ->
      charge t cost;
      match String.split_on_char ' ' line with
      | [ "COMMIT" ] ->
          let reply = Serve.defer sink in
          St.commit_group store (function Ok h -> reply (ok_reply h) | Error _ -> reply er_reply)
      | cmd -> Serve.write sink (execute t cmd));
  t

let create_fast = serve ~transport:(Serve.Netbuf { rtc = true })

(* --- load generation -------------------------------------------------------- *)

(* The op mix: a seeded per-connection stream of SET/GET/DEL over a
   bounded keyspace, [write_frac] of them mutations, one COMMIT every
   [commit_every] requests (0 = none). Deterministic per (seed,
   connection). *)
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
