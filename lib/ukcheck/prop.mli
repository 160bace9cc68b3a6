(** Property harness: assert an invariant across N explored schedules in
    a few lines.

    {[
      Ukcheck.Prop.check ~cores:2 ~schedules:64 ~name:"counter is atomic"
        (fun smp ~seed:_ ->
          let n = ref 0 in
          for _ = 1 to 2 do
            ignore (Uksched.Sched.spawn (Uksmp.Smp.sched_of smp ~core:0) (fun () -> incr n))
          done;
          fun () -> Ukcheck.Prop.require (!n = 2) "lost an increment")
    ]}

    [check] raises [Failure] with the violation message and the shrunk
    replay certificate; alcotest and qcheck both render that directly. *)

val require : bool -> string -> (unit, string) result
(** [require cond msg] is [Ok ()] when [cond] holds, else [Error msg]. *)

val all : (unit, string) result list -> (unit, string) result
(** First [Error], else [Ok ()]. *)

val run : ?cores:int -> ?schedules:int -> Explore.fixture -> Explore.result
(** Explore with seed 1 and return the raw result
    ([schedules] is the budget, default 64). *)

val check :
  ?cores:int -> ?schedules:int -> ?seeds:int list -> name:string -> Explore.fixture -> unit
(** Explore each schedule under each of [seeds] (default [[1]]) and
    raise [Failure] on violation, formatting the message, the schedule
    counts and the replay certificate. *)
