(** The line-protocol front-end over {!Ukstore.Store}: every mutation runs
    against the crash-consistent merkle store, so a served image that
    loses power recovers to its last acknowledged COMMIT on the next boot.

    One request per line; every reply is {!reply_len} bytes:
    {v
    SET <key> <value>   -> "OK <root16>\n"     new working-root hash
    GET <key>           -> "OK <blob16>\n"     value's content hash
                           "NF <zero16>\n"     absent
    DEL <key>           -> "OK <root16>\n" | "NF <zero16>\n"
    COMMIT              -> "OK <commit16>\n"   durable when sent
    ROOT                -> "OK <root16>\n"
    v}
    COMMITs are group commits, answered by a per-store committer thread
    once their journal record is durable. *)

type t

val reply_len : int
(** The length of every reply: ["OK <hash16>\n"]. *)

val serve :
  transport:Serve.transport ->
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  ?port:int ->
  ?core:int ->
  store:Ukstore.Store.t ->
  unit ->
  t
(** Serve [store] on [port] (default 7000) over [transport], and spawn
    the store's committer thread. [core] (default 0) labels the
    committer's tracepoints. *)

val create_fast :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  ?port:int ->
  ?core:int ->
  store:Ukstore.Store.t ->
  unit ->
  t
(** {!serve} on the netbuf run-to-completion path. *)

val populate : t -> int -> unit
(** Server-side seeding: [n] deterministic keys ([k00000], ...) with
    32-byte values, committed durable. *)

val state_hash : t -> Ukstore.Store.hash
(** The store's working-root hash. *)

val client :
  ?write_frac:float -> ?keyspace:int -> ?commit_every:int -> ?seed:int -> unit -> Load.proto
(** The op mix: a seeded per-connection stream of SET/GET over
    [keyspace] keys (default 512), [write_frac] (default 0.5) of them
    SETs, and one COMMIT every [commit_every] requests (default 0: none).
    Deterministic per ([seed], connection). *)
