type mode = Compiled_out | Threaded of Uksched.Sched.t

(* Acquire/release instrumentation seam for correctness tooling (ukcheck's
   lockset race detector). One process-wide hook: the observer must not
   block, advance clocks or draw randomness, so installing it cannot
   change a run. Every compiled-in lock carries a process-unique uid. *)
module Hook = struct
  type op = Acquire | Release
  type event = { op : op; uid : int; lock_name : string }

  let hook : (event -> unit) option ref = ref None
  let set f = hook := f
  let next_uid = ref 0

  let fresh_uid () =
    incr next_uid;
    !next_uid

  let emit op uid lock_name =
    match !hook with Some f -> f { op; uid; lock_name } | None -> ()
end

module C = Uktrace.Metric.Counter

module Mutex = struct
  type inner = {
    sched : Uksched.Sched.t;
    uid : int;
    mname : string;
    mutable holder : Uksched.Sched.tid option;
    waiters : Uksched.Sched.tid Queue.t;
    group : Uktrace.Registry.group;
    acquisitions : C.t;
    contended : C.t;
    wait_cycles : C.t;
  }

  type t = Nop | Real of inner

  let create ?(name = "mutex") mode =
    match mode with
    | Compiled_out -> Nop
    | Threaded sched ->
        let group = Uktrace.Registry.group ~subsystem:"uklock" name in
        let acquisitions = Uktrace.Registry.counter group "acquisitions" in
        let contended = Uktrace.Registry.counter group "contended" in
        let wait_cycles = Uktrace.Registry.counter group "wait_cycles" in
        Real
          { sched; uid = Hook.fresh_uid (); mname = name; holder = None;
            waiters = Queue.create (); group; acquisitions; contended; wait_cycles }

  let acquired m =
    C.incr m.acquisitions;
    Hook.emit Hook.Acquire m.uid m.mname

  let rec lock = function
    | Nop -> ()
    | Real m as t -> (
        match m.holder with
        | None ->
            m.holder <- Some (Uksched.Sched.self ());
            acquired m
        | Some _ ->
            let clk = Uksched.Sched.clock m.sched in
            let blocked_at = Uksim.Clock.cycles clk in
            Queue.push (Uksched.Sched.self ()) m.waiters;
            Uksched.Sched.block ();
            C.incr m.contended;
            C.add m.wait_cycles (Uksim.Clock.cycles clk - blocked_at);
            (* Woken by unlock, which already transferred ownership to us;
               re-check defensively in case of spurious wakeups. *)
            if m.holder = Some (Uksched.Sched.self ()) then acquired m else lock t)

  let try_lock = function
    | Nop -> true
    | Real m -> (
        match m.holder with
        | None ->
            m.holder <- Some (Uksched.Sched.self ());
            acquired m;
            true
        | Some _ -> false)

  let unlock = function
    | Nop -> ()
    | Real m -> (
        match m.holder with
        | None -> invalid_arg "Lock.Mutex.unlock: not locked"
        | Some _ -> (
            Hook.emit Hook.Release m.uid m.mname;
            match Queue.take_opt m.waiters with
            | Some next ->
                m.holder <- Some next;
                Uksched.Sched.wake m.sched next
            | None -> m.holder <- None))

  let locked = function Nop -> false | Real m -> m.holder <> None

  (* A compiled-out mutex registers nothing; its source reads zero. *)
  let compiled_out =
    Uktrace.Source.make ~subsystem:"uklock" ~name:"compiled-out" (fun () ->
        List.map
          (fun n -> (n, Uktrace.Metric.Count 0))
          [ "acquisitions"; "contended"; "wait_cycles" ])

  let source = function Nop -> compiled_out | Real m -> Uktrace.Registry.source m.group

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e
end

module Semaphore = struct
  type inner = {
    sched : Uksched.Sched.t;
    mutable n : int;
    waiters : Uksched.Sched.tid Queue.t;
  }

  type t = Nop of int ref | Real of inner

  let create mode n =
    if n < 0 then invalid_arg "Lock.Semaphore.create: negative count";
    match mode with
    | Compiled_out -> Nop (ref n)
    | Threaded sched -> Real { sched; n; waiters = Queue.create () }

  let wait = function
    | Nop r -> r := max 0 (!r - 1)
    | Real s ->
        if s.n > 0 then s.n <- s.n - 1
        else begin
          Queue.push (Uksched.Sched.self ()) s.waiters;
          Uksched.Sched.block ()
          (* the signaller consumed the count on our behalf *)
        end

  let try_wait = function
    | Nop r ->
        if !r > 0 then begin
          decr r;
          true
        end
        else false
    | Real s ->
        if s.n > 0 then begin
          s.n <- s.n - 1;
          true
        end
        else false

  let signal = function
    | Nop r -> incr r
    | Real s -> (
        match Queue.take_opt s.waiters with
        | Some tid -> Uksched.Sched.wake s.sched tid
        | None -> s.n <- s.n + 1)

  let count = function Nop r -> !r | Real s -> s.n
end

(* A cross-core spinlock for the SMP model. Per-core clocks all count
   cycles since boot on one global axis, so the lock can be simulated
   conservatively with a single [free_at] watermark: an acquirer whose
   clock is behind the watermark spins (its clock advances to the
   watermark, the wait is recorded), then holds the lock for [hold]
   cycles. Deterministic given a deterministic acquisition order. *)
module Spin = struct
  type t = {
    sname : string;
    suid : int;
    mutable free_at : int;
    group : Uktrace.Registry.group;
    acquisitions : C.t;
    contended : C.t;
    wait_cycles : C.t;
    held_cycles : C.t;
  }

  let create ?(name = "spinlock") () =
    let group = Uktrace.Registry.group ~subsystem:"uklock" name in
    let acquisitions = Uktrace.Registry.counter group "acquisitions" in
    let contended = Uktrace.Registry.counter group "contended" in
    let wait_cycles = Uktrace.Registry.counter group "wait_cycles" in
    let held_cycles = Uktrace.Registry.counter group "held_cycles" in
    { sname = name; suid = Hook.fresh_uid (); free_at = 0; group; acquisitions; contended;
      wait_cycles; held_cycles }

  let source t = Uktrace.Registry.source t.group

  let acquire t clock ~hold =
    if hold < 0 then invalid_arg "Lock.Spin.acquire: negative hold";
    let now = Uksim.Clock.cycles clock in
    let wait = max 0 (t.free_at - now) in
    if wait > 0 then begin
      Uksim.Clock.advance clock wait;
      C.incr t.contended;
      C.add t.wait_cycles wait
    end;
    let entered = Uksim.Clock.cycles clock in
    Hook.emit Hook.Acquire t.suid t.sname;
    Uksim.Clock.advance clock hold;
    t.free_at <- entered + hold;
    C.incr t.acquisitions;
    C.add t.held_cycles hold;
    Hook.emit Hook.Release t.suid t.sname
end

module Condvar = struct
  type inner = { sched : Uksched.Sched.t; waiters : Uksched.Sched.tid Queue.t }
  type t = Nop | Real of inner

  let create = function
    | Compiled_out -> Nop
    | Threaded sched -> Real { sched; waiters = Queue.create () }

  let wait t mutex =
    match t with
    | Nop -> ()
    | Real c ->
        Queue.push (Uksched.Sched.self ()) c.waiters;
        Mutex.unlock mutex;
        Uksched.Sched.block ();
        Mutex.lock mutex

  let signal = function
    | Nop -> ()
    | Real c -> (
        match Queue.take_opt c.waiters with
        | Some tid -> Uksched.Sched.wake c.sched tid
        | None -> ())

  let broadcast = function
    | Nop -> ()
    | Real c ->
        Queue.iter (fun tid -> Uksched.Sched.wake c.sched tid) c.waiters;
        Queue.clear c.waiters
end
