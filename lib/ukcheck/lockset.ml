(* Hybrid lockset (Eraser) + happens-before (vector clock) race detector.
   Pure observation: every callback only reads substrate state and
   mutates detector-private tables, so attaching it cannot perturb a run.

   Vector clocks are sparse (tid -> count). Happens-before edges:
   - lock release -> next acquire of the same lock (mutex and spinlock);
   - spawn: parent context -> child thread;
   - wake: waking context -> woken thread (covers IPIs: a cross-core wake
     fires the same group observer after routing);
   - exit: thread -> driver context (tid 0), so post-run invariant checks
     read finished threads' writes without a false positive.
   Lockset rule on top: two accesses to one cell race if they come from
   different threads, at least one writes, they share no lock, and
   neither happens-before the other. *)

module Smp = Uksmp.Smp
module Sched = Uksched.Sched
module Hook = Uklock.Lock.Hook

type vc = (int, int) Hashtbl.t

type access = {
  a_tid : int;
  a_core : int;
  a_cycles : int;
  a_site : string;
  a_write : bool;
  a_locks : string list;
}

(* Internal access record: the public view plus HB bookkeeping. *)
type iaccess = {
  acc : access;
  i_locks : int list;  (* lock uids held *)
  i_epoch : int;  (* accessor's own component at the access *)
}

type report = { r_cell : string; r_first : access; r_second : access }

type cell_state = {
  cs_name : string;
  mutable cs_last_write : iaccess option;
  mutable cs_reads : iaccess list;
  mutable cs_reported : bool;
}

type t = {
  smp : Smp.t;
  vcs : (int, vc) Hashtbl.t;  (* tid -> vector clock *)
  held : (int, (int * string) list) Hashtbl.t;  (* tid -> locks held *)
  release_vc : (int, vc) Hashtbl.t;  (* lock uid -> clock at last release *)
  mutable reports : report list;  (* newest first *)
  mutable n_accesses : int;
  mutable n_lock_events : int;
  mutable n_ipis : int;
  mutable detached : bool;
}

type cell_handle = (t * cell_state) option

let current : t option ref = ref None

(* Aggregate counters, registered once under "ukcheck.metrics" (sticky). *)
let metrics = lazy (Uktrace.Registry.group ~sticky:true ~subsystem:"ukcheck" "metrics")
let counter name = lazy (Uktrace.Registry.counter (Lazy.force metrics) name)
let m_accesses = counter "shared_accesses"
let m_lock_events = counter "lock_events"
let m_races = counter "races"

(* --- vector clocks ------------------------------------------------------- *)

let vc_of d tid =
  match Hashtbl.find_opt d.vcs tid with
  | Some v -> v
  | None ->
      let v = Hashtbl.create 8 in
      Hashtbl.replace d.vcs tid v;
      v

let vc_get v tid = Option.value (Hashtbl.find_opt v tid) ~default:0

let tick d tid =
  let v = vc_of d tid in
  Hashtbl.replace v tid (vc_get v tid + 1)

let join dst src = Hashtbl.iter (fun k c -> if c > vc_get dst k then Hashtbl.replace dst k c) src

(* [prev] happens-before the current moment of [tid] iff prev's own
   component is covered by [tid]'s clock. *)
let ordered_before d prev tid = prev.i_epoch <= vc_get (vc_of d tid) prev.acc.a_tid

(* --- execution context --------------------------------------------------- *)

(* Who is running right now: (tid, core, cycles). Thread 0 is the driver
   pseudo-thread — setup code before Smp.run, engine-event callbacks and
   post-run invariant checks all account there. *)
let ctx d =
  match Smp.current_core d.smp with
  | Some core ->
      let sched = Smp.sched_of d.smp ~core in
      let tid = Option.value (Sched.current_tid sched) ~default:0 in
      (tid, core, Uksim.Clock.cycles (Smp.clock_of d.smp ~core))
  | None ->
      let cycles = ref 0 in
      for core = 0 to Smp.n_cores d.smp - 1 do
        cycles := max !cycles (Uksim.Clock.cycles (Smp.clock_of d.smp ~core))
      done;
      (0, -1, !cycles)

let locks_held d tid = Option.value (Hashtbl.find_opt d.held tid) ~default:[]

(* --- hook callbacks ------------------------------------------------------ *)

let on_lock d (ev : Hook.event) =
  if not d.detached then begin
    d.n_lock_events <- d.n_lock_events + 1;
    Uktrace.Metric.Counter.incr (Lazy.force m_lock_events);
    let tid, _, _ = ctx d in
    match ev.op with
    | Hook.Acquire ->
        Hashtbl.replace d.held tid ((ev.uid, ev.lock_name) :: locks_held d tid);
        (* release -> acquire edge *)
        (match Hashtbl.find_opt d.release_vc ev.uid with
        | Some v -> join (vc_of d tid) v
        | None -> ())
    | Hook.Release ->
        Hashtbl.replace d.held tid
          (List.filter (fun (uid, _) -> uid <> ev.uid) (locks_held d tid));
        Hashtbl.replace d.release_vc ev.uid (Hashtbl.copy (vc_of d tid));
        tick d tid
  end

let on_thread d (ev : Sched.group_event) =
  if not d.detached then
    match ev with
    | Sched.Spawned child ->
        let tid, _, _ = ctx d in
        join (vc_of d child) (vc_of d tid);
        tick d tid
    | Sched.Woken dst ->
        let tid, _, _ = ctx d in
        if tid <> dst then begin
          join (vc_of d dst) (vc_of d tid);
          tick d tid
        end
    | Sched.Exited tid ->
        join (vc_of d 0) (vc_of d tid)

let on_ipi d ~src:_ ~dst:_ = if not d.detached then d.n_ipis <- d.n_ipis + 1

(* --- attach / detach ----------------------------------------------------- *)

let attach smp =
  (match !current with
  | Some _ -> invalid_arg "Lockset.attach: a detector is already attached"
  | None -> ());
  let d =
    {
      smp;
      vcs = Hashtbl.create 64;
      held = Hashtbl.create 16;
      release_vc = Hashtbl.create 16;
      reports = [];
      n_accesses = 0;
      n_lock_events = 0;
      n_ipis = 0;
      detached = false;
    }
  in
  Hook.set (Some (on_lock d));
  Sched.set_group_observer (Smp.group smp) (Some (on_thread d));
  Smp.set_wake_observer smp (Some (on_ipi d));
  current := Some d;
  d

let detach d =
  if not d.detached then begin
    d.detached <- true;
    Hook.set None;
    Sched.set_group_observer (Smp.group d.smp) None;
    Smp.set_wake_observer d.smp None;
    current := None
  end

let reports d = List.rev d.reports
let accesses d = d.n_accesses
let lock_events d = d.n_lock_events
let ipis d = d.n_ipis

(* --- the race rule ------------------------------------------------------- *)

let report d cell prev cur =
  cell.cs_reported <- true;
  d.reports <- { r_cell = cell.cs_name; r_first = prev.acc; r_second = cur.acc } :: d.reports;
  Uktrace.Metric.Counter.incr (Lazy.force m_races);
  let tr = Uktrace.Tracer.default in
  if Uktrace.Tracer.enabled tr then
    Uktrace.Tracer.instant tr
      ~core:(max 0 cur.acc.a_core)
      ~cat:"ukcheck" ~ts:cur.acc.a_cycles
      (Printf.sprintf "race:%s" cell.cs_name)

let conflicts d prev ~tid ~write cur_locks =
  prev.acc.a_tid <> tid
  && (prev.acc.a_write || write)
  && (not (List.exists (fun uid -> List.mem uid prev.i_locks) cur_locks))
  && not (ordered_before d prev tid)

let record (h : cell_handle) ~write ~site =
  match h with
  | None -> ()
  | Some (d, cell) ->
      if not d.detached then begin
        let tid, core, cycles = ctx d in
        d.n_accesses <- d.n_accesses + 1;
        Uktrace.Metric.Counter.incr (Lazy.force m_accesses);
        let held = locks_held d tid in
        let uids = List.map fst held in
        (if not cell.cs_reported then
           let candidates =
             match cell.cs_last_write with
             | Some w when write -> (w :: cell.cs_reads)
             | Some w -> [ w ]
             | None -> if write then cell.cs_reads else []
           in
           match List.find_opt (fun p -> conflicts d p ~tid ~write uids) candidates with
           | Some prev ->
               let cur =
                 {
                   acc =
                     {
                       a_tid = tid;
                       a_core = core;
                       a_cycles = cycles;
                       a_site = site;
                       a_write = write;
                       a_locks = List.map snd held;
                     };
                   i_locks = uids;
                   i_epoch = vc_get (vc_of d tid) tid;
                 }
               in
               report d cell prev cur
           | None -> ());
        tick d tid;
        let v = vc_of d tid in
        let ia =
          {
            acc =
              {
                a_tid = tid;
                a_core = core;
                a_cycles = cycles;
                a_site = site;
                a_write = write;
                a_locks = List.map snd held;
              };
            i_locks = uids;
            i_epoch = vc_get v tid;
          }
        in
        if write then begin
          cell.cs_last_write <- Some ia;
          cell.cs_reads <- []
        end
        else
          cell.cs_reads <- ia :: List.filter (fun r -> r.acc.a_tid <> tid) cell.cs_reads
      end

let register_cell ~name : cell_handle =
  match !current with
  | None -> None
  | Some d ->
      Some (d, { cs_name = name; cs_last_write = None; cs_reads = []; cs_reported = false })

let pp_access ppf a =
  Format.fprintf ppf "%s %s by thread %d on core %d at cycle %d%s"
    (if a.a_write then "write" else "read")
    a.a_site a.a_tid a.a_core a.a_cycles
    (match a.a_locks with
    | [] -> " holding no locks"
    | ls -> " holding {" ^ String.concat ", " ls ^ "}")

let pp_report ppf r =
  Format.fprintf ppf "@[<v 2>data race on %s:@,first:  %a@,second: %a@]" r.r_cell pp_access
    r.r_first pp_access r.r_second
