type policy = {
  max_restarts : int;
  backoff_ns : float;
  backoff_factor : float;
  max_backoff_ns : float;
  jitter : float;
}

let default_policy =
  { max_restarts = 5; backoff_ns = 1.0e6; backoff_factor = 2.0; max_backoff_ns = 1.0e8;
    jitter = 0.0 }

type state = Running | Restarting | Completed | Gave_up

type t = {
  sched : Sched.t;
  engine : Uksim.Engine.t;
  policy : policy;
  sname : string;
  on_crash : (exn -> unit) option;
  body : unit -> unit;
  rng : Uksim.Rng.t option;  (* jitter draws; None when jitter = 0 *)
  mutable st : state;
  mutable crashes : int;
  mutable restarts : int;
  mutable backoff : float;
  mutable last_error : exn option;
}

(* The undithered backoff plus a uniform fraction of itself: two
   supervisors crashing in lockstep restart [0, jitter] backoffs apart
   instead of colliding on every retry. *)
let jittered t delay =
  match t.rng with
  | None -> delay
  | Some rng -> delay *. (1.0 +. (t.policy.jitter *. Uksim.Rng.float rng 1.0))

let rec launch t =
  t.st <- Running;
  ignore
    (Sched.spawn t.sched ~name:t.sname ~daemon:true (fun () ->
         match t.body () with
         | () -> t.st <- Completed
         | exception Sched.Thread_exit ->
             (* Voluntary exit is a normal completion, not a crash. *)
             t.st <- Completed;
             raise Sched.Thread_exit
         | exception exn ->
             t.crashes <- t.crashes + 1;
             t.last_error <- Some exn;
             (match t.on_crash with Some f -> f exn | None -> ());
             if t.restarts >= t.policy.max_restarts then t.st <- Gave_up
             else begin
               t.st <- Restarting;
               let delay = jittered t t.backoff in
               t.backoff <-
                 Float.min (t.backoff *. t.policy.backoff_factor) t.policy.max_backoff_ns;
               t.restarts <- t.restarts + 1;
               Uksim.Engine.after_ns t.engine delay (fun () -> launch t)
             end))

let supervise sched ~engine ?(policy = default_policy) ?(name = "supervised") ?on_crash body =
  if policy.jitter < 0.0 then invalid_arg "Supervisor.supervise: negative jitter";
  let rng =
    if policy.jitter = 0.0 then None
    else
      (* Deterministic by construction: the seed is a hash of the
         supervisor's name, so equal runs jitter identically. *)
      Some (Uksim.Rng.create (Hashtbl.hash name lxor 0x1AB5))
  in
  let t =
    { sched; engine; policy; sname = name; on_crash; body; rng; st = Running;
      crashes = 0; restarts = 0; backoff = policy.backoff_ns; last_error = None }
  in
  launch t;
  t

let state t = t.st
let crashes t = t.crashes
let restarts t = t.restarts
let last_error t = t.last_error
let restarts_remaining t = max 0 (t.policy.max_restarts - t.restarts)
