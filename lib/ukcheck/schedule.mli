(** Schedule certificates: the replayable identity of one explored run.

    A certificate is [(seed, cores, decisions)] — everything {!Explore}
    needs to reproduce a schedule byte-identically on the {!Uksmp.Smp}
    substrate: the fixture's seed and the core count fix the workload,
    and the decision list pins every choice point (step-order
    tie-breaks, per-core dispatch picks) the coordinator hit. Decisions
    beyond the list take the default branch (choice 0), so a certificate
    only has to name the interesting prefix. *)

type decision = Uksmp.Smp.decision = { kind : string; arity : int; choice : int }

type cert = { seed : int; cores : int; decisions : decision list }

val strip_defaults : decision list -> decision list
(** Drop trailing default (choice-0) decisions — they are implied. *)

val to_string : cert -> string
(** Compact one-line form, e.g.
    ["seed=1;cores=2;dispatch@0:2/1;step_core:3/2"] — each decision as
    [kind:arity/choice]. *)

val of_string : string -> cert option
(** Parse {!to_string}'s format; [None] on malformed input. *)
