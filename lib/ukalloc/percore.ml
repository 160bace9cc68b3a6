(* Per-core arena/magazine layer over any Alloc.t backend (SMP model).

   Each core keeps per-size-class magazines (stacks of free objects). The
   hot path pops/pushes a magazine and charges only Cost.arena_fast_path to
   that core's clock — no lock. When a magazine drains, the core refills a
   batch from the shared backend under a Uklock.Spin whose hold models the
   backend work; overflowing magazines flush half back the same way. The
   backend is typically created on a dummy clock so its own cost charges go
   nowhere — the Spin hold is the modeled cost, and contention on it is what
   the shared-lock-vs-arena ablation measures. *)

let max_class_size = 4096
let min_class = 4 (* 16-byte minimum object *)
let max_class = 12 (* log2 max_class_size *)

type t = {
  clocks : Uksim.Clock.t array;
  backend : Alloc.t;
  batch : int;
  max_cached : int;
  lock : Uklock.Lock.Spin.t;
  mags : int list array array; (* core -> class -> free addrs *)
  mag_len : int array array; (* avoid O(n) List.length on the hot path *)
  addr2class : (int, int) Hashtbl.t; (* live or magazine-cached small objects *)
  bypass : (int, int) Hashtbl.t; (* addr -> size, for > max_class_size *)
  mutable fast_hits : int; (* allocations served from a magazine *)
  mutable refills : int;
  mutable flushes : int;
  mutable backend_oom : int; (* refills/bypasses that got fewer objects than asked *)
  mutable allocs : int;
  mutable frees : int;
  mutable in_use : int;
  mutable peak : int;
}

(* Objects and bytes sitting in magazines right now. *)
let cached t =
  let objs = ref 0 and bytes = ref 0 in
  Array.iter
    (Array.iteri (fun c len ->
         objs := !objs + len;
         bytes := !bytes + (len * (1 lsl c))))
    t.mag_len;
  (!objs, !bytes)

(* A computed source: the magazine levels are summed at snapshot time. *)
let source t =
  Uktrace.Source.make ~subsystem:"ukalloc" ~name:"percore"
    ~reset:(fun () ->
      t.fast_hits <- 0;
      t.refills <- 0;
      t.flushes <- 0;
      t.backend_oom <- 0)
    (fun () ->
      let objs, bytes = cached t in
      [
        ("fast_hits", Uktrace.Metric.Count t.fast_hits);
        ("refills", Uktrace.Metric.Count t.refills);
        ("flushes", Uktrace.Metric.Count t.flushes);
        ("backend_oom", Uktrace.Metric.Count t.backend_oom);
        ("allocs", Uktrace.Metric.Count t.allocs);
        ("frees", Uktrace.Metric.Count t.frees);
        ("cached_objs", Uktrace.Metric.Level (float_of_int objs));
        ("cached_bytes", Uktrace.Metric.Level (float_of_int bytes));
        ("bytes_in_use", Uktrace.Metric.Level (float_of_int t.in_use));
        ("peak_bytes", Uktrace.Metric.Level (float_of_int t.peak));
      ])

let create ~clocks ~backend ?(batch = 16) ?(max_cached = 64) () =
  if Array.length clocks = 0 then invalid_arg "Percore.create: no cores";
  if batch <= 0 then invalid_arg "Percore.create: batch must be positive";
  if max_cached < batch then invalid_arg "Percore.create: max_cached < batch";
  let n = Array.length clocks in
  let t = {
    clocks;
    backend;
    batch;
    max_cached;
    lock = Uklock.Lock.Spin.create ~name:"arena-backend" ();
    mags = Array.init n (fun _ -> Array.make (max_class + 1) []);
    mag_len = Array.init n (fun _ -> Array.make (max_class + 1) 0);
    addr2class = Hashtbl.create 256;
    bypass = Hashtbl.create 16;
    fast_hits = 0;
    refills = 0;
    flushes = 0;
    backend_oom = 0;
    allocs = 0;
    frees = 0;
    in_use = 0;
    peak = 0;
  }
  in
  Uktrace.Registry.register (source t);
  t

let n_cores t = Array.length t.clocks
let lock t = t.lock

let class_of size = max min_class (Alloc.log2_ceil size)

let note_alloc t bytes =
  t.allocs <- t.allocs + 1;
  t.in_use <- t.in_use + bytes;
  if t.in_use > t.peak then t.peak <- t.in_use

let refill_hold t = Uksim.Cost.alloc_backend_op + (t.batch * Uksim.Cost.arena_refill_per_obj)

(* Pull up to [batch] objects of class [c] from the backend; returns how
   many arrived. Caller holds (held) the spinlock window already. *)
let refill t ~core c =
  let csize = 1 lsl c in
  let got = ref 0 in
  (try
     for _ = 1 to t.batch do
       match t.backend.Alloc.malloc csize with
       | Some addr ->
           Hashtbl.replace t.addr2class addr c;
           t.mags.(core).(c) <- addr :: t.mags.(core).(c);
           t.mag_len.(core).(c) <- t.mag_len.(core).(c) + 1;
           incr got
       | None -> raise Exit
     done
   with Exit -> ());
  t.refills <- t.refills + 1;
  if !got < t.batch then t.backend_oom <- t.backend_oom + 1;
  !got

let flush t ~core c =
  let keep = t.max_cached / 2 in
  let rec split i acc = function
    | rest when i = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | a :: rest -> split (i - 1) (a :: acc) rest
  in
  let kept, excess = split keep [] t.mags.(core).(c) in
  t.mags.(core).(c) <- kept;
  t.mag_len.(core).(c) <- List.length kept;
  let n = List.length excess in
  Uklock.Lock.Spin.acquire t.lock t.clocks.(core)
    ~hold:(Uksim.Cost.alloc_backend_op + (n * Uksim.Cost.arena_refill_per_obj));
  List.iter
    (fun addr ->
      Hashtbl.remove t.addr2class addr;
      t.backend.Alloc.free addr)
    excess;
  t.flushes <- t.flushes + 1

let malloc t ~core size =
  if size <= 0 then invalid_arg "Percore.malloc: size must be positive";
  let clock = t.clocks.(core) in
  if size > max_class_size then begin
    (* Large objects bypass the magazines and hit the backend directly. *)
    Uklock.Lock.Spin.acquire t.lock clock ~hold:Uksim.Cost.alloc_backend_op;
    match t.backend.Alloc.malloc size with
    | Some addr ->
        Hashtbl.replace t.bypass addr size;
        note_alloc t size;
        Some addr
    | None ->
        t.backend_oom <- t.backend_oom + 1;
        None
  end
  else begin
    let c = class_of size in
    (match t.mags.(core).(c) with
    | _ :: _ -> t.fast_hits <- t.fast_hits + 1
    | [] ->
        Uklock.Lock.Spin.acquire t.lock clock ~hold:(refill_hold t);
        ignore (refill t ~core c));
    match t.mags.(core).(c) with
    | addr :: rest ->
        t.mags.(core).(c) <- rest;
        t.mag_len.(core).(c) <- t.mag_len.(core).(c) - 1;
        Uksim.Clock.advance clock Uksim.Cost.arena_fast_path;
        note_alloc t (1 lsl c);
        Some addr
    | [] -> None
  end

let free t ~core addr =
  let clock = t.clocks.(core) in
  match Hashtbl.find_opt t.bypass addr with
  | Some size ->
      Hashtbl.remove t.bypass addr;
      Uklock.Lock.Spin.acquire t.lock clock ~hold:Uksim.Cost.alloc_backend_op;
      t.backend.Alloc.free addr;
      t.frees <- t.frees + 1;
      t.in_use <- t.in_use - size
  | None -> (
      match Hashtbl.find_opt t.addr2class addr with
      | Some c ->
          Uksim.Clock.advance clock Uksim.Cost.arena_fast_path;
          t.mags.(core).(c) <- addr :: t.mags.(core).(c);
          t.mag_len.(core).(c) <- t.mag_len.(core).(c) + 1;
          t.frees <- t.frees + 1;
          t.in_use <- t.in_use - (1 lsl c);
          if t.mag_len.(core).(c) > t.max_cached then flush t ~core c
      | None -> invalid_arg "Percore.free: unknown address")

let view t ~core =
  if core < 0 || core >= n_cores t then invalid_arg "Percore.view: bad core";
  let clock = t.clocks.(core) in
  let malloc size = malloc t ~core size in
  let free addr = free t ~core addr in
  {
    Alloc.name = Printf.sprintf "percore[%d]/%s" core t.backend.Alloc.name;
    malloc;
    calloc = (fun n size -> malloc (n * size));
    memalign =
      (fun ~align size ->
        (* Magazines carry no alignment guarantee; go to the backend. *)
        Uklock.Lock.Spin.acquire t.lock clock ~hold:Uksim.Cost.alloc_backend_op;
        match t.backend.Alloc.memalign ~align size with
        | Some addr ->
            Hashtbl.replace t.bypass addr size;
            note_alloc t size;
            Some addr
        | None -> None);
    free;
    realloc =
      (fun addr size ->
        match malloc size with
        | Some naddr ->
            free addr;
            Some naddr
        | None -> None);
    availmem = (fun () -> t.backend.Alloc.availmem ());
    source = source t;
  }

(* The ablation baseline: every view funnels every operation through one
   spinlock around the shared backend. Same backend, same per-op cost — the
   only difference from the arena is the serialization. *)
let shared_lock_views ~clocks ~backend ?(hold = Uksim.Cost.alloc_backend_op) () =
  let lock = Uklock.Lock.Spin.create ~name:"alloc-shared" () in
  let view core =
    let clock = clocks.(core) in
    let locked f =
      Uklock.Lock.Spin.acquire lock clock ~hold;
      f ()
    in
    {
      backend with
      Alloc.name = Printf.sprintf "sharedlock[%d]/%s" core backend.Alloc.name;
      malloc = (fun size -> locked (fun () -> backend.Alloc.malloc size));
      calloc = (fun n size -> locked (fun () -> backend.Alloc.calloc n size));
      memalign = (fun ~align size -> locked (fun () -> backend.Alloc.memalign ~align size));
      free = (fun addr -> locked (fun () -> backend.Alloc.free addr));
      realloc = (fun addr size -> locked (fun () -> backend.Alloc.realloc addr size));
    }
  in
  (Array.init (Array.length clocks) view, lock)
