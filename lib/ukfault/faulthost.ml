type event =
  | Crash of int
  | Recover of int
  | Freeze of int * float
  | Block of int * int
  | Partition of int list * int list
  | Partition_asym of int list * int list
  | Heal of int list * int list

type ops = {
  crash : now_ns:float -> int -> bool;
  recover : now_ns:float -> int -> bool;
  freeze : now_ns:float -> int -> dur_ns:float -> bool;
  block : now_ns:float -> src:int -> dst:int -> bool;
  unblock : now_ns:float -> src:int -> dst:int -> bool;
}

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  ops : ops;
  group : Uktrace.Registry.group;
  applied : Uktrace.Metric.Counter.t;
  missed : Uktrace.Metric.Counter.t;
}

let source t = Uktrace.Registry.source t.group
let count t ok = Uktrace.Metric.Counter.incr (if ok then t.applied else t.missed)

let at_abs t ns f =
  Uksim.Engine.at t.engine
    (max (Uksim.Clock.cycles_of_ns ns) (Uksim.Clock.cycles t.clock))
    f

(* Cross products expand a partition into its directed link cuts, so the
   owner only ever implements one primitive: block src->dst. *)
let pairs a b = List.concat_map (fun x -> List.map (fun y -> (x, y)) b) a

let apply t ~now_ns ev =
  match ev with
  | Crash h -> count t (t.ops.crash ~now_ns h)
  | Recover h -> count t (t.ops.recover ~now_ns h)
  | Freeze (h, dur) -> count t (t.ops.freeze ~now_ns h ~dur_ns:dur)
  | Block (src, dst) -> count t (t.ops.block ~now_ns ~src ~dst)
  | Partition (a, b) ->
      List.iter (fun (src, dst) -> count t (t.ops.block ~now_ns ~src ~dst))
        (pairs a b @ pairs b a)
  | Partition_asym (a, b) ->
      List.iter (fun (src, dst) -> count t (t.ops.block ~now_ns ~src ~dst)) (pairs a b)
  | Heal (a, b) ->
      List.iter (fun (src, dst) -> count t (t.ops.unblock ~now_ns ~src ~dst))
        (pairs a b @ pairs b a)

let arm ~clock ~engine ~ops timeline =
  let group = Uktrace.Registry.group ~subsystem:"ukfault" "host" in
  let applied = Uktrace.Registry.counter group "applied" in
  let missed = Uktrace.Registry.counter group "missed" in
  let t = { clock; engine; ops; group; applied; missed } in
  List.iter (fun (at_ns, ev) -> at_abs t at_ns (fun () -> apply t ~now_ns:at_ns ev))
    timeline;
  t
