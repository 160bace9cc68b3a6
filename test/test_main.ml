(* Aggregated test runner for the whole ukraft reproduction.

   Naming convention: each suite lives in test/t_<lib>.ml and registers
   here as ("<lib>", T_<lib>.suite), where <lib> is the lib/ directory
   it covers (suites spanning several libraries, or named after a
   scenario rather than a library, say so in their label). Keep the
   rows in alphabetical order so concurrent PRs merge cleanly. *)

let () =
  Alcotest.run "ukraft"
    [
      ("decode (hostile input, every decoder)", T_decode.suite);
      ("dns", T_dns.suite);
      ("fastpath (uknetdev+uknetstack+ukapps)", T_fastpath.suite);
      ("infer (ukapps+ukvfs+ukfleet)", T_infer.suite);
      ("ukalloc", T_ukalloc.suite);
      ("ukapps", T_ukapps.suite);
      ("ukblock", T_ukblock.suite);
      ("ukboot", T_ukboot.suite);
      ("ukbuild", T_ukbuild.suite);
      ("ukcheck", T_ukcheck.suite);
      ("ukcluster", T_ukcluster.suite);
      ("ukcompat", T_ukcompat.suite);
      ("ukconf", T_ukconf.suite);
      ("ukdebug", T_ukdebug.suite);
      ("ukfault", T_ukfault.suite);
      ("ukfleet", T_ukfleet.suite);
      ("ukgraph", T_ukgraph.suite);
      ("uklibparam", T_uklibparam.suite);
      ("uklock", T_uklock.suite);
      ("ukmmu+ukboot+ukplat", T_ukmmu.suite);
      ("uknetdev", T_uknetdev.suite);
      ("uknetstack", T_uknetstack.suite);
      ("ukos", T_ukos.suite);
      ("ukplat", T_ukplat.suite);
      ("uksched", T_uksched.suite);
      ("uksec (mpk/asan/binary)", T_uksec.suite);
      ("uksim", T_uksim.suite);
      ("uksmp", T_uksmp.suite);
      ("ukstore", T_ukstore.suite);
      ("uksyscall", T_uksyscall.suite);
      ("uktcp-loss", T_uktcp_loss.suite);
      ("uktrace", T_uktrace.suite);
      ("ukvfs", T_ukvfs.suite);
      ("unikraft", T_unikraft.suite);
    ]
