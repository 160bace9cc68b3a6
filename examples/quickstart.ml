(* Quickstart: configure a unikernel, build its image, boot it on a VMM,
   and run its main() — the whole Unikraft flow in ~40 lines.

   Run with: dune exec examples/quickstart.exe *)

module Cfg = Unikraft.Config
module Img = Unikraft.Image
module Vm = Unikraft.Vm

let ok = function Ok v -> v | Error e -> failwith e

let () =
  (* 1. Configure: pick micro-libraries through the Kconfig-style menu.
     A helloworld needs no scheduler, no network stack, no real libc. *)
  let cfg =
    ok
      (Cfg.make ~app:"app-hello" ~platform:"plat-kvm" ~libc:Cfg.Nolibc ~sched:Cfg.None_
         ~alloc:Cfg.Bootalloc ~mem_mb:8 ())
  in
  Format.printf "configuration: %a@." Cfg.pp cfg;

  (* 2. Build: the linker composes only the selected micro-libraries and
     dead-code-eliminates the rest. *)
  let image = ok (Img.build cfg) in
  Format.printf "image: %a@." Img.pp image;
  Format.printf "micro-libraries linked: %s@." (String.concat ", " (Img.libs image));

  (* 3. Boot on QEMU/KVM and inspect the phase-by-phase boot report. *)
  let env = ok (Vm.boot ~vmm:Ukplat.Vmm.Qemu cfg) in
  let bd = env.Vm.breakdown in
  Format.printf "boot: VMM %.2f ms + guest %.1f us = total %.2f ms@."
    (bd.Ukplat.Vmm.vmm_startup_ns /. 1e6)
    (bd.Ukplat.Vmm.guest_ns /. 1e3)
    (bd.Ukplat.Vmm.total_ns /. 1e6);
  List.iter
    (fun p ->
      Format.printf "  [level %d] %-24s %a@." p.Ukboot.Boot.level p.Ukboot.Boot.phase
        Uksim.Units.pp_ns p.Ukboot.Boot.duration_ns)
    env.Vm.report.Ukboot.Boot.phases;

  (* 4. Run the application. *)
  Vm.run_main env (fun e ->
      let line = Ukapps.Hello.main ~clock:e.Vm.clock in
      Format.printf "guest says: %s@." line);

  (* Compare with other VMMs, Fig 10 style. *)
  Format.printf "@.boot across VMMs:@.";
  List.iter
    (fun vmm ->
      let env = ok (Vm.boot ~vmm cfg) in
      let bd = env.Vm.breakdown in
      Format.printf "  %-14s total %6.2f ms (guest only: %5.1f us)@." (Ukplat.Vmm.name vmm)
        (bd.Ukplat.Vmm.total_ns /. 1e6)
        (bd.Ukplat.Vmm.guest_ns /. 1e3))
    [ Ukplat.Vmm.Qemu; Ukplat.Vmm.Qemu_microvm; Ukplat.Vmm.Firecracker; Ukplat.Vmm.Solo5 ]
