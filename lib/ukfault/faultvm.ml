type plan = {
  at_ns : float;
  kill_fraction : float;
  min_kills : int;
  repeat_ns : float;
  rounds : int;
}

let stagger_ns = 10_000.0 (* between consecutive kills of one round *)

let plan ~at_ns ?(kill_fraction = 0.2) ?(min_kills = 1) ?(repeat_ns = 0.0) ?(rounds = 1) () =
  if kill_fraction < 0.0 || kill_fraction > 1.0 then
    invalid_arg "Faultvm.plan: kill_fraction not in [0,1]";
  if min_kills < 0 then invalid_arg "Faultvm.plan: negative min_kills";
  if rounds < 1 then invalid_arg "Faultvm.plan: rounds must be >= 1";
  { at_ns; kill_fraction; min_kills; repeat_ns; rounds }

module C = Uktrace.Metric.Counter

type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  rng : Uksim.Rng.t;
  p : plan;
  targets : unit -> int list;
  kill : now_ns:float -> int -> bool;
  group : Uktrace.Registry.group;
  rounds_run : C.t;
  killed : C.t;
  missed : C.t;
}

let source t = Uktrace.Registry.source t.group

let victims ~rng ~fraction ~min_kills ids =
  let arr = Array.of_list ids in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let want =
      min n (max min_kills (int_of_float (Float.round (fraction *. float_of_int n))))
    in
    (* Partial Fisher-Yates: the first [want] slots are a uniform sample
       without replacement, already in kill order. *)
    for i = 0 to want - 1 do
      let j = i + Uksim.Rng.int rng (n - i) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list (Array.sub arr 0 want)
  end

let at_abs t ns f =
  Uksim.Engine.at t.engine
    (max (Uksim.Clock.cycles_of_ns ns) (Uksim.Clock.cycles t.clock))
    f

let rec round t ~start ~left =
  at_abs t start (fun () ->
      C.incr t.rounds_run;
      let vs =
        victims ~rng:t.rng ~fraction:t.p.kill_fraction ~min_kills:t.p.min_kills
          (t.targets ())
      in
      List.iteri
        (fun i iid ->
          let when_ = start +. (float_of_int i *. stagger_ns) in
          at_abs t when_ (fun () ->
              C.incr (if t.kill ~now_ns:when_ iid then t.killed else t.missed)))
        vs;
      if left > 1 && t.p.repeat_ns > 0.0 then
        round t ~start:(start +. t.p.repeat_ns) ~left:(left - 1))

let arm ~clock ~engine ~rng ~plan:p ~targets ~kill =
  let group = Uktrace.Registry.group ~subsystem:"ukfault" "vm" in
  let rounds_run = Uktrace.Registry.counter group "rounds" in
  let killed = Uktrace.Registry.counter group "killed" in
  let missed = Uktrace.Registry.counter group "missed" in
  let t = { clock; engine; rng; p; targets; kill; group; rounds_run; killed; missed } in
  round t ~start:p.at_ns ~left:p.rounds;
  t
