(* Fleet quickstart: absorb a 10x flash crowd by booting through it.

   A fleet of calibrated httpd unikernels sits behind an L4 front door;
   an autoscaler watches the fleet's own readings and scales out
   via snapshot clones (~1.3 ms each) when the spike hits.

   Run with: dune exec examples/fleet.exe *)

module Fleet = Ukfleet.Fleet

let () =
  let fleet =
    Fleet.create ~boot_mode:Fleet.Snapshot ~autoscale:Ukfleet.Autoscaler.default
      ~shed_after_ns:(Uksim.Units.msec 50.0) ~image:Ukfleet.Image.httpd ()
  in
  let c = Fleet.costs fleet in
  Format.printf "cold boot %.2f ms, clone %.2f ms, %.1f us/request@."
    (c.Fleet.cold_boot_ns /. 1e6) (c.Fleet.clone_ns /. 1e6) (c.Fleet.service_ns /. 1e3);

  (* Steady load at 1.5x one instance's capacity, then a 10x spike. *)
  let cap = 1e9 /. c.Fleet.service_ns in
  let ms = Uksim.Units.msec in
  let w =
    Ukfleet.Workload.spike ~base_rps:(1.5 *. cap) ~factor:10.0 ~at_ns:(ms 20.0)
      ~spike_ns:(ms 40.0) ~duration_ns:(ms 100.0)
  in
  let r = Fleet.run fleet w in

  Format.printf "offered %d requests; completed %d, shed %d, lost %d@." r.Fleet.offered
    r.Fleet.completed r.Fleet.shed r.Fleet.lost;
  Format.printf "scaled 1 -> %d instances via %d clones (1 cold template boot)@."
    r.Fleet.peak_instances r.Fleet.clones;
  Format.printf "p50 %.0f us, p99 %.0f us, SLO-violation window %.0f ms@." r.Fleet.p50_us
    r.Fleet.p99_us (r.Fleet.slo_violation_ns /. 1e6);
  Format.printf "deterministic trace hash %016x@." r.Fleet.trace_hash
