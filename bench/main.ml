(* The experiment harness: regenerates every table and figure of the
   Unikraft paper (see DESIGN.md for the per-experiment index).

   Usage:
     dune exec bench/main.exe                 # run everything
     dune exec bench/main.exe -- --only fig12 # one experiment
     dune exec bench/main.exe -- --only perf  # one group
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --micro      # bechamel micro-benchmarks
     UKRAFT_FAST=1  dune exec bench/main.exe  # reduced request counts
     UKRAFT_TRACE=1 dune exec bench/main.exe  # + Chrome TRACE_<id>.json

   Experiments live in the Exp_* modules and self-describe through
   Bench.register; every group run lands a BENCH_<group>.json with the
   emitted results plus per-phase uktrace metrics snapshots. *)

let () =
  (* Sticky sources register on first use, and a metrics window lists
     sources in registration order. Registered here, in the order a full
     run first uses them, each sits at the same place in every window
     whichever experiments --only selects. *)
  List.iter
    (fun source -> ignore (source ()))
    [ Ukboot.Boot.source; Ukapps.Infer.source; Ukstore.Store.source ];
  Exp_build.register ();
  Exp_boot.register ();
  Exp_perf.register ();
  Exp_io.register ();
  Exp_ablation.register ();
  Exp_chaos.register ();
  Exp_smp.register ();
  Exp_fleet.register ();
  Exp_cluster.register ();
  Exp_infer.register ();
  Exp_store.register ();
  Exp_compat.register ();
  Bench.main ~micro:Micro.run ()
