module Level = struct
  let early = 1
  let paging = 2
  let alloc = 3
  let sched = 4
  let bus = 5
  let fs = 6
  let late = 7
end

module Inittab = struct
  type entry = { level : int; name : string; ctor : unit -> unit }
  type t = { mutable entries : entry list (* reversed registration order *) }

  let create () = { entries = [] }

  let register t ~level ~name ctor =
    if level < 1 || level > 7 then invalid_arg "Inittab.register: level must be in 1..7";
    t.entries <- { level; name; ctor } :: t.entries

  let ordered t =
    (* Stable by level, registration order within a level. *)
    List.stable_sort
      (fun a b -> compare a.level b.level)
      (List.rev t.entries)

  let entries t = List.map (fun e -> (e.level, e.name)) (ordered t)
end

type phase_report = {
  phase : string;
  level : int;
  start_ns : float;
  duration_ns : float;
}

type report = { guest_boot_ns : float; phases : phase_report list }

exception Constructor_failed of { phase : string; level : int; cause : exn }

let () =
  Printexc.register_printer (function
    | Constructor_failed { phase; level; cause } ->
        Some
          (Printf.sprintf "Constructor_failed(phase %S, level %d: %s)" phase level
             (Printexc.to_string cause))
    | _ -> None)

(* Boot observability: the last report and a cumulative boot count,
   published as one sticky ["ukboot.boot"] registry source so per-phase
   timings show up in snapshots alongside every other subsystem. *)
let boots = ref 0
let last_report : report option ref = ref None

let source =
  lazy
    (let s =
       Uktrace.Source.make ~subsystem:"ukboot" ~name:"boot"
         ~reset:(fun () ->
           boots := 0;
           last_report := None)
         (fun () ->
           let base = [ ("boots", Uktrace.Metric.Count !boots) ] in
           match !last_report with
           | None -> base
           | Some r ->
               base
               @ ("guest_boot_ns", Uktrace.Metric.Level r.guest_boot_ns)
                 :: List.map
                      (fun p ->
                        ( Printf.sprintf "phase.%d.%s_ns" p.level p.phase,
                          Uktrace.Metric.Level p.duration_ns ))
                      r.phases)
     in
     Uktrace.Registry.register ~sticky:true s;
     s)

let source () = Lazy.force source

let run ~clock ?main tab =
  ignore (source ());
  let t0 = Uksim.Clock.ns clock in
  let phases =
    List.map
      (fun (e : Inittab.entry) ->
        let start = Uksim.Clock.ns clock in
        (try e.ctor ()
         with exn ->
           raise (Constructor_failed { phase = e.name; level = e.level; cause = exn }));
        {
          phase = e.name;
          level = e.level;
          start_ns = start -. t0;
          duration_ns = Uksim.Clock.ns clock -. start;
        })
      (Inittab.ordered tab)
  in
  let guest_boot_ns = Uksim.Clock.ns clock -. t0 in
  incr boots;
  last_report := Some { guest_boot_ns; phases };
  (match main with Some f -> f () | None -> ());
  { guest_boot_ns; phases }
