type tid = int

exception Deadlock of string list
exception Thread_exit

type _ Effect.t +=
  | Yield : unit Effect.t
  | Block : unit Effect.t
  | Sleep : int -> unit Effect.t
  | Self : tid Effect.t

(* What a thread's fiber reports back to the trampoline when it stops. *)
type outcome =
  | Done
  | Yielded of (unit, outcome) Effect.Deep.continuation
  | Blocked_k of (unit, outcome) Effect.Deep.continuation
  | Slept of int * (unit, outcome) Effect.Deep.continuation

type tstate = Sready | Srunning | Sblocked | Sexited

type thread = {
  tid : tid;
  tname : string;
  daemon : bool;
  mutable state : tstate;
  mutable cont : (unit, outcome) Effect.Deep.continuation option;
  mutable body : (unit -> unit) option; (* not yet started *)
}

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  ready : thread Queue.t;
  threads : (tid, thread) Hashtbl.t;
  mutable next_tid : int;
  mutable current : thread option;
  mutable grp : group option;
  mutable dispatch_chooser : (int -> int) option;
}

(* A group ties several per-core schedulers into one SMP domain: tids are
   unique across members, and wakes addressed to a member that does not
   own the thread are routed to the owner. The optional remote-wake hook
   lets uksmp charge an IPI when that routing crosses cores. *)
and group = {
  mutable members : t list; (* registration order *)
  g_next : int ref;
  mutable remote_wake : (src:t -> dst:t -> unit) option;
  mutable observer : (group_event -> unit) option;
}

and group_event = Spawned of tid | Woken of tid | Exited of tid

let create_cooperative ~clock ~engine =
  {
    clock;
    engine;
    ready = Queue.create ();
    threads = Hashtbl.create 16;
    next_tid = 1;
    current = None;
    grp = None;
    dispatch_chooser = None;
  }

let clock t = t.clock

let create_group () = { members = []; g_next = ref 1; remote_wake = None; observer = None }

let join_group g t =
  (match t.grp with Some _ -> invalid_arg "Sched.join_group: already grouped" | None -> ());
  t.grp <- Some g;
  g.members <- g.members @ [ t ];
  g.g_next := max !(g.g_next) t.next_tid

let set_remote_wake g hook = g.remote_wake <- hook
let set_group_observer g hook = g.observer <- hook
let set_dispatch_chooser t f = t.dispatch_chooser <- f
let current_tid t = match t.current with Some th -> Some th.tid | None -> None

(* Notify the group's observer (ukcheck's happens-before tracker), if any. *)
let notify t ev =
  match t.grp with
  | Some { observer = Some f; _ } -> f ev
  | Some _ | None -> ()

let yield () = Effect.perform Yield
let self () = Effect.perform Self
let block () = Effect.perform Block
let sleep_ns ns = Effect.perform (Sleep (Uksim.Clock.cycles_of_ns ns))
let exit_thread () = raise Thread_exit

let handler th =
  {
    Effect.Deep.retc = (fun o -> o);
    exnc = (function Thread_exit -> Done | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some (fun (k : (a, outcome) Effect.Deep.continuation) -> Yielded k)
        | Block -> Some (fun (k : (a, outcome) Effect.Deep.continuation) -> Blocked_k k)
        | Sleep c ->
            Some (fun (k : (a, outcome) Effect.Deep.continuation) -> Slept (c, k))
        | Self ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                Effect.Deep.continue k th.tid)
        | _ -> None);
  }

let spawn t ?name:(tname = "thread") ?(daemon = false) ?pinned:_ f =
  let tid =
    match t.grp with
    | Some g ->
        let v = !(g.g_next) in
        g.g_next := v + 1;
        v
    | None ->
        let v = t.next_tid in
        t.next_tid <- v + 1;
        v
  in
  let th = { tid; tname; daemon; state = Sready; cont = None; body = Some f } in
  Hashtbl.replace t.threads tid th;
  notify t (Spawned tid);
  Queue.push th t.ready;
  tid

let wake_local t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some th when th.state = Sblocked ->
      th.state <- Sready;
      Queue.push th t.ready;
      notify t (Woken tid);
      true
  | Some _ | None -> false

(* Wakes route through the group when the thread is not local: the waker
   holds another core's scheduler (a stack or lock created on another
   core, or a thread waking a peer on another core). *)
let wake t tid =
  if not (Hashtbl.mem t.threads tid) then
    match t.grp with
    | None -> ()
    | Some g -> (
        match List.find_opt (fun m -> m != t && Hashtbl.mem m.threads tid) g.members with
        | Some owner ->
            if wake_local owner tid then
              (match g.remote_wake with Some hook -> hook ~src:t ~dst:owner | None -> ())
        | None -> ())
  else ignore (wake_local t tid)

let dispatch t th =
  Uksim.Clock.advance t.clock Uksim.Cost.context_switch;
  th.state <- Srunning;
  t.current <- Some th;
  let out =
    match th.body with
    | Some f ->
        th.body <- None;
        Effect.Deep.match_with
          (fun () ->
            f ();
            Done)
          () (handler th)
    | None -> (
        match th.cont with
        | Some k ->
            th.cont <- None;
            Effect.Deep.continue k ()
        | None -> Done)
  in
  t.current <- None;
  match out with
  | Done ->
      th.state <- Sexited;
      notify t (Exited th.tid)
  | Yielded k ->
      th.cont <- Some k;
      th.state <- Sready;
      Queue.push th t.ready
  | Blocked_k k ->
      th.cont <- Some k;
      th.state <- Sblocked
  | Slept (c, k) ->
      th.cont <- Some k;
      th.state <- Sblocked;
      Uksim.Engine.after t.engine c (fun () -> wake t th.tid)

let blocked_names t =
  Hashtbl.fold
    (fun _ th acc ->
      if th.state = Sblocked && not th.daemon then th.tname :: acc else acc)
    t.threads []

let runnable t =
  Queue.fold (fun acc th -> if th.state = Sready then acc + 1 else acc) 0 t.ready

(* Remove the [k]-th (0-based) genuinely ready thread from the run queue,
   preserving the relative order of the others. Stale entries (threads
   woken twice, or exited while queued) are dropped along the way. *)
let take_ready_nth t k =
  let n = Queue.length t.ready in
  let chosen = ref None in
  let seen = ref 0 in
  for _ = 1 to n do
    let th = Queue.pop t.ready in
    if th.state <> Sready then () (* drop stale entry *)
    else if Option.is_none !chosen && !seen = k then chosen := Some th
    else begin
      incr seen;
      Queue.push th t.ready
    end
  done;
  !chosen

(* One unit of progress for an external coordinator (uksmp): dispatch one
   ready thread, else run one engine event. A popped-but-stale queue entry
   still counts as progress (the queue shrank). With a dispatch chooser
   installed (ukcheck's schedule explorer), the choice of which ready
   thread runs becomes an explicit decision point instead of FIFO order. *)
let step t =
  match t.dispatch_chooser with
  | Some choose -> (
      let n = runnable t in
      if n = 0 then Uksim.Engine.step t.engine
      else
        let k =
          if n = 1 then 0
          else
            let c = choose n in
            if c < 0 || c >= n then 0 else c
        in
        match take_ready_nth t k with
        | Some th ->
            dispatch t th;
            true
        | None -> true)
  | None -> (
      match Queue.take_opt t.ready with
      | Some th ->
          if th.state = Sready then dispatch t th;
          true
      | None -> Uksim.Engine.step t.engine)

let rec run t =
  match Queue.take_opt t.ready with
  | Some th ->
      (* A thread can sit in the queue with a stale state (e.g. woken twice
         before running); only dispatch genuinely ready ones. *)
      if th.state = Sready then dispatch t th;
      run t
  | None ->
      let blocked = blocked_names t in
      if blocked <> [] then
        if Uksim.Engine.step t.engine then run t else raise (Deadlock blocked)

let alive t =
  Hashtbl.fold (fun _ th acc -> if th.state = Sexited then acc else acc + 1) t.threads 0

let thread_name t tid =
  match Hashtbl.find_opt t.threads tid with Some th -> Some th.tname | None -> None

let stuck t = blocked_names t
