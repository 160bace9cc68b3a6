module Bfs = Ukvfs.Blockfs

(* --- cost model ----------------------------------------------------------

   Per-batch compute is one full sweep over the weights (the GEMM reads
   every parameter once per forward pass, 16 B/cycle — same bandwidth
   figure as Cost.memcpy) plus a per-item term for activations that
   scales with the item's token width. Batching amortizes the sweep:
   that asymmetry is the whole latency-vs-throughput knob. *)

let weight_pass_per_mb = 65536 (* cycles: 1 MiB of weights at 16 B/cycle *)
let item_per_mb_width = 64 (* cycles per MiB of model per token of width *)
let admit_cost = 90 (* queue insert + deadline bookkeeping *)
let parse_cost = 180 (* socket path: line materialization + field parse *)
let fast_parse_cost = 60 (* netbuf path: in-place scan of the request line *)

let weight_pass_cycles size_mb = size_mb * weight_pass_per_mb
let item_cycles size_mb width = max 1 (size_mb * width * item_per_mb_width)

let page = 4096

(* Same avalanche as Blockfs's digest mix (independent copy: the output
   digest is an app-level contract, not a storage-format one). *)
let mix a b =
  let z = ref ((a + 0x101 + (b * 0x2545F4914F6CDD1D)) land max_int) in
  z := ((!z lxor (!z lsr 30)) * 0x1b8b2188105bd9f) land max_int;
  z := ((!z lxor (!z lsr 27)) * 0x194d049bb13311) land max_int;
  !z lxor (!z lsr 31)

(* --- the sticky ukapps.infer source ------------------------------------- *)

module C = Uktrace.Metric.Counter

type metrics = {
  group : Uktrace.Registry.group;
  weight_loads : C.t;
  weight_bytes : C.t;
  load_ns : Uktrace.Metric.Gauge.t; (* most recent weight load *)
  requests : C.t;
  batches : C.t;
  errors : C.t;
}

let metrics =
  lazy
    (let group = Uktrace.Registry.group ~sticky:true ~subsystem:"ukapps" "infer" in
     let weight_loads = Uktrace.Registry.counter group "weight_loads" in
     let weight_bytes = Uktrace.Registry.counter group "weight_bytes" in
     let load_ns = Uktrace.Registry.gauge group "load_ns" in
     let requests = Uktrace.Registry.counter group "requests" in
     let batches = Uktrace.Registry.counter group "batches" in
     let errors = Uktrace.Registry.counter group "errors" in
     { group; weight_loads; weight_bytes; load_ns; requests; batches; errors })

let source () = Uktrace.Registry.source (Lazy.force metrics).group

(* --- weights -------------------------------------------------------------- *)

type model = { name : string; digest : int; size_mb : int; bytes : int; load_ns : float }

(* Deterministic seeded weights: a 64-byte header per 4 KiB page derived
   from (seed, page index), zeros elsewhere — exactly the bytes the
   Blockfs digest samples, so every page contributes to the content
   address without host-side generation cost scaling past O(size). *)
let weight_fill ~seed ~off buf ~pos ~len =
  let p = ref 0 in
  while !p < len do
    let idx = (off + !p) / page in
    let n = min 64 (len - !p) in
    let h = ref (mix seed idx) in
    for w = 0 to (n / 8) - 1 do
      h := mix !h w;
      Bytes.set_int64_le buf (pos + !p + (w * 8)) (Int64.of_int !h)
    done;
    p := !p + page
  done

let publish ~clock ~dev ?(seed = 0x5EED) ~size_mb () =
  let bytes = size_mb * 1024 * 1024 in
  (* Content addressing: the name is the digest, so a first generator
     pass computes it before the store sees a single byte. *)
  let digest = Bfs.digest_of_stream ~size:bytes ~fill:(weight_fill ~seed) in
  let name = Printf.sprintf "%016x" digest in
  let store = Bfs.create ~clock dev in
  (match Bfs.add_stream store ~name ~size:bytes ~fill:(weight_fill ~seed) with
  | Ok d -> assert (d = digest)
  | Error e -> invalid_arg ("Infer.publish: " ^ Ukvfs.Fs.errno_to_string e));
  (store, name)

let basename path =
  match List.rev (Ukvfs.Fs.split_path path) with n :: _ -> n | [] -> path

let load ~clock ~vfs ~store ~path () =
  let m = Lazy.force metrics in
  let t0 = Uksim.Clock.ns clock in
  let name = basename path in
  (* Resolution and metadata go through vfscore — the mount table, path
     walk and stat of the generic stack... *)
  match Ukvfs.Vfs.stat vfs path with
  | Error e -> Error (Printf.sprintf "weights %s: stat: %s" path (Ukvfs.Fs.errno_to_string e))
  | Ok { Ukvfs.Fs.size; _ } -> (
      (* ...while the bulk bytes take the specialized streaming path:
         windowed chunk reads overlap on the device queue, and the guest
         only pays page installs (PTE writes) plus the sampled digest
         verification — no counted copy of the weight bytes. *)
      let install data ~off:_ ~len =
        ignore data;
        Uksim.Clock.advance clock
          ((len + page - 1) / page * Uksim.Cost.page_table_entry_write)
      in
      match Bfs.stream store ~name ~f:install () with
      | Error e ->
          Error
            (Printf.sprintf "weights %s: stream: %s" path (Ukvfs.Fs.errno_to_string e))
      | Ok { Bfs.bytes; digest; _ } ->
          if bytes <> size then Error (Printf.sprintf "weights %s: size mismatch" path)
          else if
            (* The content address must agree with the content. *)
            match int_of_string_opt ("0x" ^ name) with
            | Some d -> d <> digest
            | None -> false
          then Error (Printf.sprintf "weights %s: content address mismatch" path)
          else begin
            let load_ns = Uksim.Clock.ns clock -. t0 in
            C.incr m.weight_loads;
            Uktrace.Metric.Gauge.set m.load_ns load_ns;
            C.add m.weight_bytes bytes;
            Ok
              {
                name;
                digest;
                size_mb = (bytes + (1 lsl 20) - 1) / (1 lsl 20);
                bytes;
                load_ns;
              }
          end)

(* --- admission queue + batch executor ------------------------------------ *)

type pending = { prid : int; pwidth : int; preply : string -> unit }

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  max_batch : int;
  max_wait_ns : float;
  core : int;
  model : model;
  q : pending Queue.t;
  mutable timer_gen : int; (* armed deadlines carry the gen they saw *)
  mutable timer_armed : bool;
  m : metrics;
  mutable state : int;
  alloc : Ukalloc.Alloc.t option;
}

let charge t c = Uksim.Clock.advance t.clock c
let reply_len = 3 + 8 + 1 + 16 + 1 (* "OK <id8> <digest16>\n" *)
let request ~rid ~width = Printf.sprintf "INF %08x %d\n" (rid land 0xFFFFFFFF) width
let out_digest model ~rid ~width = mix (mix model.digest rid) width

let reply_line ~ok ~rid out =
  Printf.sprintf "%s %08x %016x\n" (if ok then "OK" else "ER") (rid land 0xFFFFFFFF) out

let rec run_batch t =
  (* Invalidate any armed deadline: it belongs to requests served now. *)
  t.timer_gen <- t.timer_gen + 1;
  t.timer_armed <- false;
  let b = min (Queue.length t.q) t.max_batch in
  if b > 0 then begin
    Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~core:t.core ~cat:"ukapps"
      "infer_batch" (fun () ->
        let items = List.init b (fun _ -> Queue.pop t.q) in
        (* Activation scratch from the app allocator, freed with the batch. *)
        let scratch =
          Option.bind t.alloc (fun a -> Ukalloc.Alloc.uk_malloc a 4096)
        in
        charge t (weight_pass_cycles t.model.size_mb);
        List.iter
          (fun it ->
            charge t (item_cycles t.model.size_mb it.pwidth);
            let out = out_digest t.model ~rid:it.prid ~width:it.pwidth in
            let r = reply_line ~ok:true ~rid:it.prid out in
            (* Commutative fold: the two transports may batch the
               same request set differently, the hash must not care. *)
            t.state <- t.state lxor mix out (it.prid + (it.pwidth * 0x10001));
            C.incr t.m.requests;
            it.preply r)
          items;
        (match (scratch, t.alloc) with
        | Some addr, Some a -> Ukalloc.Alloc.uk_free a addr
        | _ -> ());
        C.incr t.m.batches);
    if Queue.length t.q >= t.max_batch then run_batch t
    else if not (Queue.is_empty t.q) then arm_timer t
  end

and arm_timer t =
  t.timer_armed <- true;
  let gen = t.timer_gen in
  Uksim.Engine.after_ns t.engine t.max_wait_ns (fun () ->
      if gen = t.timer_gen && not (Queue.is_empty t.q) then run_batch t)

let submit t ~rid ~width ~reply =
  charge t admit_cost;
  Queue.push { prid = rid; pwidth = max 0 width; preply = reply } t.q;
  if Queue.length t.q >= t.max_batch then run_batch t
  else if not t.timer_armed then arm_timer t

let pump t = if not (Queue.is_empty t.q) then run_batch t

let mk_bare ~clock ~engine ?(max_batch = 8) ?(max_wait_ns = Uksim.Units.usec 20.0)
    ?(core = 0) ?alloc ~model () =
  let m = Lazy.force metrics in
  if max_batch < 1 then invalid_arg "Infer: max_batch must be >= 1";
  {
    clock;
    engine;
    max_batch;
    max_wait_ns;
    core;
    model;
    q = Queue.create ();
    timer_gen = 0;
    timer_armed = false;
    m;
    state = 0;
    alloc;
  }

let create_bare ~clock ~engine ?max_batch ?max_wait_ns ~model () =
  mk_bare ~clock ~engine ?max_batch ?max_wait_ns ~model ()

let state_hash t = t.state

(* --- wire parsing --------------------------------------------------------- *)

let parse_req line =
  match String.split_on_char ' ' line with
  | [ "INF"; id; w ] -> (
      match (int_of_string_opt ("0x" ^ id), int_of_string_opt w) with
      | Some rid, Some width when width >= 0 -> Some (rid, width)
      | _ -> None)
  | _ -> None

let bad_reply = reply_line ~ok:false ~rid:0 0

(* --- serving ----------------------------------------------------------------- *)

type make =
  clock:Uksim.Clock.t -> engine:Uksim.Engine.t -> sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t -> alloc:Ukalloc.Alloc.t -> ?port:int -> ?core:int ->
  ?max_batch:int -> ?max_wait_ns:float -> model:model -> unit -> t

let serve ~transport ~clock ~engine ~sched ~stack ~alloc ?(port = 8000) ?core ?max_batch
    ?max_wait_ns ~model () =
  let t = mk_bare ~clock ~engine ?max_batch ?max_wait_ns ?core ~alloc ~model () in
  let cost = if transport = Serve.Socket then parse_cost else fast_parse_cost in
  Serve.start transport ~name:"infer" ~clock ~sched ~stack ~port ~frame:Serve.line
    ~handle:(fun sink line ->
      charge t cost;
      match parse_req line with
      | Some (rid, width) ->
          (* The reply holds its place until the batch runs, often in
             engine context (the deadline), where the flush must not
             block. *)
          submit t ~rid ~width ~reply:(Serve.defer sink)
      | None ->
          C.incr t.m.errors;
          Serve.write sink bad_reply);
  t

let create = serve ~transport:Serve.Socket

let client ?(width = 16) () =
  Load.fixed ~name:"infer" ~reply_len (fun ~conn ~first:_ j ->
      request ~rid:((conn lsl 20) lor j) ~width)
