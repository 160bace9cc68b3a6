type sample = string * Metric.value

type t = {
  subsystem : string;
  name : string;
  snapshot : unit -> sample list;
  reset : unit -> unit;
}

let make ~subsystem ~name ?(reset = fun () -> ()) snapshot =
  { subsystem; name; snapshot; reset }

let id t = t.subsystem ^ "." ^ t.name

let read reader kind t name =
  let fail what = invalid_arg (Printf.sprintf "Source.%s: %s %s %s" reader (id t) what name) in
  match List.assoc_opt name (t.snapshot ()) with
  | None -> fail "has no sample"
  | Some v -> ( match kind v with Some x -> x | None -> fail "has another kind of sample")

let count = read "count" (function Metric.Count n -> Some n | Metric.Level _ | Metric.Buckets _ -> None)
let level = read "level" (function Metric.Level v -> Some v | Metric.Count _ | Metric.Buckets _ -> None)
