(* Boot-time and memory-footprint experiments (Figs 10, 11, 14, 21;
   text1, text2). *)

open Common

let fig10 =
  {
    Bench.id = "fig10";
    group = "boot";
    descr = "boot time per VMM (guest vs VMM time)";
    run =
      (fun () ->
        row "%-14s %12s %14s %14s %12s\n" "vmm" "vmm(ms)" "guest,0nic(us)" "guest,1nic(us)"
          "total(ms)";
        List.iter
          (fun vmm ->
            let boot nics =
              (* The NIC-attached image needs the stack (and so a
                 scheduler); the bare image boots scheduler-less. *)
              let sched = if nics > 0 then Cfg.Coop else Cfg.None_ in
              let cfg =
                ok
                  (Cfg.make ~app:"app-hello" ~libc:Cfg.Nolibc ~sched ~alloc:Cfg.Bootalloc
                     ~net:(if nics > 0 then Cfg.Vhost_net else Cfg.No_net)
                     ())
              in
              (* For the 1-NIC case attach a wire. *)
              if nics = 0 then (ok (Vm.boot ~vmm cfg)).Vm.breakdown
              else begin
                let clock = Uksim.Clock.create () in
                let engine = Uksim.Engine.create clock in
                let wa, _ = Uknetdev.Wire.create_pair ~engine () in
                (ok (Vm.boot ~vmm ~clock ~engine ~wire:wa cfg)).Vm.breakdown
              end
            in
            let b0, b1 = Bench.phase ("boot_" ^ Vmm.name vmm) (fun () -> (boot 0, boot 1)) in
            row "%-14s %12.2f %14.1f %14.1f %12.2f\n" (Vmm.name vmm)
              (ms b0.Vmm.vmm_startup_ns) (us b0.Vmm.guest_ns) (us b1.Vmm.guest_ns)
              (ms b1.Vmm.total_ns))
          [ Vmm.Qemu; Vmm.Qemu_microvm; Vmm.Firecracker; Vmm.Solo5 ];
        row "=> guest boot is tens-to-hundreds of us; total time is dominated by the VMM\n");
  }

(* Fig 11: minimum memory to boot and exercise each application. The
   workload allocates the app's working set from the configured
   allocator; a size works if nothing failed. *)
let min_memory_mb ~app ~alloc ~workload =
  let works mem_mb =
    match
      Cfg.make ~app ~alloc ~mem_mb
        ~fs:(if app = "app-sqlite" then Cfg.Ramfs else Cfg.No_fs)
        ()
    with
    | Error _ -> false
    | Ok cfg -> (
        match Vm.boot ~vmm:Vmm.Qemu cfg with
        | Error _ -> false
        | Ok env -> (
            match workload env with
            | () -> Uktrace.Source.count env.Vm.alloc.Ukalloc.Alloc.source "failed" = 0
            | exception _ -> false))
  in
  let rec scan m = if m > 64 then m else if works m then m else scan (m + 1) in
  scan 2

let alloc_n env ~count ~size =
  (* Exercise the allocator like the app's steady state: a persistent
     working set plus short-lived per-request buffers. *)
  let a = env.Vm.alloc in
  for _ = 1 to count do
    ignore (Ukalloc.Alloc.uk_malloc a size)
  done;
  for _ = 1 to count do
    match Ukalloc.Alloc.uk_malloc a 512 with
    | Some addr -> Ukalloc.Alloc.uk_free a addr
    | None -> ()
  done

let fig11 =
  {
    Bench.id = "fig11";
    group = "boot";
    descr = "minimum memory needed to run each application";
    run =
      (fun () ->
        let workloads =
          [
            ("hello", "app-hello", fun _ -> ());
            ("nginx", "app-nginx", fun env -> alloc_n env ~count:600 ~size:2048);
            ("redis", "app-redis", fun env -> alloc_n env ~count:1500 ~size:1024);
            ("sqlite", "app-sqlite", fun env -> alloc_n env ~count:1000 ~size:1024);
          ]
        in
        row "%-14s %8s %8s %8s %8s\n" "OS" "hello" "nginx" "redis" "sqlite";
        let uk =
          List.map
            (fun (name, app, wl) -> (name, min_memory_mb ~app ~alloc:Cfg.Tlsf ~workload:wl))
            workloads
        in
        let cell sizes app =
          match List.assoc_opt app sizes with Some mb -> Printf.sprintf "%dMB" mb | None -> "-"
        in
        row "%-14s %8s %8s %8s %8s\n" "unikraft" (cell uk "hello") (cell uk "nginx")
          (cell uk "redis") (cell uk "sqlite");
        List.iter
          (fun p ->
            let s = p.Ukos.Profiles.min_mem_mb in
            row "%-14s %8s %8s %8s %8s\n" p.Ukos.Profiles.os_name (cell s "hello")
              (cell s "nginx") (cell s "redis") (cell s "sqlite"))
          Ukos.Profiles.all;
        row "=> Unikraft guests need single-digit MBs; other systems tens to hundreds\n");
  }

let fig14 =
  {
    Bench.id = "fig14";
    group = "boot";
    descr = "nginx guest boot time per allocator (1GB heap)";
    run =
      (fun () ->
        row "%-12s %14s\n" "allocator" "guest boot(ms)";
        List.iter
          (fun alloc ->
            let clock = Uksim.Clock.create () in
            let engine = Uksim.Engine.create clock in
            let wa, _ = Uknetdev.Wire.create_pair ~engine () in
            let cfg = ok (Cfg.make ~app:"app-nginx" ~alloc ~net:Cfg.Vhost_net ~mem_mb:1024 ()) in
            let env = ok (Vm.boot ~vmm:Vmm.Qemu ~clock ~engine ~wire:wa cfg) in
            row "%-12s %14.2f\n" (alloc_name alloc) (ms env.Vm.breakdown.Vmm.guest_ns))
          all_allocs;
        row "=> just-in-time instantiation should avoid the buddy allocator (paper: 0.49-3.07ms)\n");
  }

let fig21 =
  {
    Bench.id = "fig21";
    group = "boot";
    descr = "boot time: static vs dynamic page-table initialization";
    run =
      (fun () ->
        row "%-8s %16s %16s\n" "RAM" "static(us)" "dynamic(us)";
        List.iter
          (fun mem_mb ->
            let boot paging =
              let cfg =
                ok
                  (Cfg.make ~app:"app-hello" ~libc:Cfg.Nolibc ~sched:Cfg.None_
                     ~alloc:Cfg.Bootalloc ~paging ~mem_mb ())
              in
              (ok (Vm.boot ~vmm:Vmm.Qemu cfg)).Vm.breakdown.Vmm.guest_ns
            in
            row "%-8s %16.1f %16.1f\n"
              (Printf.sprintf "%dMB" mem_mb)
              (us (boot Cfg.Static_pt))
              (us (boot Cfg.Dynamic_pt)))
          [ 32; 128; 512; 1024 ];
        row "=> static cost is flat; dynamic grows linearly with RAM (paper Fig 21)\n");
  }

let text1 =
  {
    Bench.id = "text1";
    group = "boot";
    descr = "unikernel boot-time baselines (§5.1)";
    run =
      (fun () ->
        row "%-14s %12s %s\n" "system" "boot(ms)" "notes";
        let uk vmm =
          let cfg =
            ok (Cfg.make ~app:"app-hello" ~libc:Cfg.Nolibc ~sched:Cfg.None_ ~alloc:Cfg.Bootalloc ())
          in
          (ok (Vm.boot ~vmm cfg)).Vm.breakdown.Vmm.guest_ns
        in
        row "%-14s %12.3f %s\n" "unikraft/qemu" (ms (uk Vmm.Qemu)) "guest only";
        row "%-14s %12.3f %s\n" "unikraft/fc" (ms (uk Vmm.Firecracker)) "guest only";
        List.iter
          (fun p ->
            match p.Ukos.Profiles.boot_ns with
            | Some ns -> row "%-14s %12.1f %s\n" p.Ukos.Profiles.os_name (ms ns) p.Ukos.Profiles.notes
            | None -> ())
          Ukos.Profiles.all);
  }

let text2 =
  {
    Bench.id = "text2";
    group = "boot";
    descr = "9pfs device boot-time overhead (§5.2)";
    run =
      (fun () ->
        let boot vmm fs =
          let cfg =
            ok (Cfg.make ~app:"app-sqlite" ~fs ~alloc:Cfg.Tlsf ~mem_mb:32 ())
          in
          (ok (Vm.boot ~vmm cfg)).Vm.breakdown.Vmm.guest_ns
        in
        List.iter
          (fun (name, vmm) ->
            let without = boot vmm Cfg.Ramfs in
            let with9p = boot vmm Cfg.Ninep in
            row "%-6s guest boot: ramfs %.2fms, 9pfs %.2fms (+%.2fms)\n" name (ms without)
              (ms with9p)
              (ms (with9p -. without)))
          [ ("kvm", Vmm.Qemu); ("xen", Vmm.Xen) ];
        row "=> paper: +0.3ms on KVM, +2.7ms on Xen\n");
  }

let register () = List.iter Bench.register_exp [ fig10; fig11; fig14; fig21; text1; text2 ]
