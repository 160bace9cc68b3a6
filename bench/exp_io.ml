(* I/O-path experiments: raw TX throughput (Fig 19), 9pfs latency
   (Fig 20), filesystem specialization (Fig 22), and the UDP key-value
   store (Table 4). *)

open Common
module Nb = Uknetdev.Netbuf
module Nd = Uknetdev.Netdev
module Vn = Uknetdev.Virtio_net
module Wire = Uknetdev.Wire

(* Transmit [frames] frames of [size] bytes as fast as the driver accepts
   them; returns achieved Gb/s measured at the receiving sink.
   [extra_pkt_cost] models a different guest framework (the DPDK-in-VM
   baseline's per-packet path). *)
let tx_throughput ~backend ~size ~frames ?(extra_pkt_cost = 0) () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, wb = Wire.create_pair ~engine ~latency_ns:5000.0 ~bandwidth_gbps:10.0 () in
  Wire.attach_sink wb;
  let dev = Vn.create ~clock ~engine ~backend ~wire:wa () in
  let payload = Bytes.make size 'x' in
  let batch = 32 in
  let sent = ref 0 in
  while !sent < frames do
    let n = min batch (frames - !sent) in
    let pkts = Array.init n (fun _ -> Nb.of_bytes payload) in
    if extra_pkt_cost > 0 then Uksim.Clock.advance clock (n * extra_pkt_cost);
    let accepted = dev.Nd.tx_burst ~qid:0 pkts in
    if accepted = 0 then
      (* Ring full: the guest spins until the host frees descriptors. *)
      Uksim.Clock.advance clock 2000
    else sent := !sent + accepted
  done;
  Uksim.Engine.run engine;
  let elapsed_ns = Uksim.Clock.ns clock in
  let bits = float_of_int (Uktrace.Source.count (Wire.source wb) "rx_bytes" * 8) in
  bits /. elapsed_ns (* Gb/s: bits per ns *)

let fig19 =
  {
    Bench.id = "fig19";
    group = "io";
    descr = "TX throughput vs DPDK-in-a-Linux-VM (vhost-user / vhost-net)";
    run =
      (fun () ->
        let frames = scaled 40_000 in
        row "%-8s %18s %18s %18s\n" "pktsize" "uknetdev+vhost-user" "dpdk-in-linux-vm"
          "uknetdev+vhost-net";
        List.iter
          (fun size ->
            let vu = tx_throughput ~backend:Vn.Vhost_user ~size ~frames () in
            (* DPDK's guest tx path costs slightly more than uknetdev's
               (full rte_mbuf handling): ~60 extra cycles per packet. *)
            let dpdk = tx_throughput ~backend:Vn.Vhost_user ~size ~frames ~extra_pkt_cost:60 () in
            let vn = tx_throughput ~backend:Vn.Vhost_net ~size ~frames () in
            row "%-8d %15.2f %18.2f %18.2f\n" size vu dpdk vn)
          [ 64; 128; 256; 512; 1024; 1500 ];
        row "=> vhost-user tracks DPDK; vhost-net is capped by the host tap path\n");
  }

let fig20 =
  {
    Bench.id = "fig20";
    group = "io";
    descr = "9pfs read/write latency vs Linux VM, by block size";
    run =
      (fun () ->
        (* Host share with a 1MB file of random-ish data. *)
        let host_clock = Uksim.Clock.create () in
        let host = Ukvfs.Ramfs.create ~clock:host_clock () in
        (match host.Ukvfs.Fs.open_file "/data.bin" ~create:true with
        | Ok h ->
            ignore (host.Ukvfs.Fs.write h ~off:0 (Bytes.make (1 lsl 20) 'd'));
            host.Ukvfs.Fs.close h
        | Error _ -> failwith "host file");
        let cfg = ok (Cfg.make ~app:"app-sqlite" ~fs:Cfg.Ninep ~mem_mb:64 ()) in
        let env = ok (Vm.boot ~vmm:Vmm.Qemu ~host_share:host cfg)
        in
        let vfs = Option.get env.Vm.vfs in
        let clock = env.Vm.clock in
        let fd =
          match Ukvfs.Vfs.open_file vfs "/data.bin" () with
          | Ok fd -> fd
          | Error e -> failwith (Ukvfs.Fs.errno_to_string e)
        in
        let iters = if fast then 20 else 200 in
        let measure op =
          let s = Uksim.Clock.start clock in
          for i = 0 to iters - 1 do
            op i
          done;
          Uksim.Clock.elapsed_ns clock s /. float_of_int iters
        in
        (* The Linux-VM path adds, per dd-style block op: the syscall
           (+KPTI), guest VFS/page-cache management, and dd's user-space
           loop — on top of the same virtio-9p RPCs. *)
        let linux_extra_ns = 4200.0 in
        row "%-8s %14s %14s %14s %14s\n" "block" "uk-read(us)" "linux-read(us)" "uk-write(us)"
          "linux-write(us)";
        List.iter
          (fun block ->
            let data = Bytes.make block 'w' in
            let rd =
              measure (fun i ->
                  match Ukvfs.Vfs.pread vfs fd ~off:(i * block mod (1 lsl 19)) ~len:block with
                  | Ok _ -> ()
                  | Error e -> failwith (Ukvfs.Fs.errno_to_string e))
            in
            let wr =
              measure (fun i ->
                  match Ukvfs.Vfs.pwrite vfs fd ~off:(i * block mod (1 lsl 19)) data with
                  | Ok _ -> ()
                  | Error e -> failwith (Ukvfs.Fs.errno_to_string e))
            in
            row "%-8d %14.1f %14.1f %14.1f %14.1f\n" block (us rd)
              (us (rd +. linux_extra_ns))
              (us wr)
              (us (wr +. linux_extra_ns)))
          [ 4096; 8192; 16384; 32768 ];
        row "=> latency grows with block size (iounit-chunked RPCs); Unikraft below Linux\n");
  }

let fig22 =
  {
    Bench.id = "fig22";
    group = "io";
    descr = "specialized filesystem: open() with and without the VFS layer";
    run =
      (fun () ->
        let n_files = 100 in
        (* Specialized: SHFS hooked directly (scenario 3 removed). *)
        let cfg_s = ok (Cfg.make ~app:"app-webcache" ~fs:Cfg.Shfs_fs ~libc:Cfg.Nolibc ()) in
        let env_s = ok (Vm.boot ~vmm:Vmm.Qemu cfg_s) in
        let wc_s =
          Ukapps.Webcache.create ~clock:env_s.Vm.clock
            (Ukapps.Webcache.Shfs_backed (Option.get env_s.Vm.shfs))
        in
        ok (Result.map_error (fun e -> e) (Ukapps.Webcache.populate wc_s ~n_files ()));
        (* Unspecialized: same app through vfscore + ramfs. *)
        let cfg_v = ok (Cfg.make ~app:"app-webcache" ~fs:Cfg.Ramfs ~libc:Cfg.Nolibc ()) in
        let env_v = ok (Vm.boot ~vmm:Vmm.Qemu cfg_v) in
        let wc_v =
          Ukapps.Webcache.create ~clock:env_v.Vm.clock
            (Ukapps.Webcache.Vfs_backed (Option.get env_v.Vm.vfs, "/"))
        in
        ok (Result.map_error (fun e -> e) (Ukapps.Webcache.populate wc_v ~n_files ()));
        let s = Ukapps.Webcache.measure_open wc_s in
        let v = Ukapps.Webcache.measure_open wc_v in
        (* Linux VM: open() through syscall + the kernel's heavier VFS. *)
        let linux_extra = 2300.0 in
        row "%-26s %12s %12s\n" "system" "hit (ns)" "miss (ns)";
        row "%-26s %12.0f %12.0f\n" "linux VM (initrd)"
          (v.Ukapps.Webcache.hit_ns +. linux_extra)
          (v.Ukapps.Webcache.miss_ns +. linux_extra);
        row "%-26s %12.0f %12.0f\n" "unikraft vfscore+ramfs" v.Ukapps.Webcache.hit_ns
          v.Ukapps.Webcache.miss_ns;
        row "%-26s %12.0f %12.0f\n" "unikraft SHFS (specialized)" s.Ukapps.Webcache.hit_ns
          s.Ukapps.Webcache.miss_ns;
        row "=> paper: 5-7x reduction from dropping the VFS layer (%.1fx here on hits)\n"
          (v.Ukapps.Webcache.hit_ns /. s.Ukapps.Webcache.hit_ns));
  }

(* --- Table 4 ------------------------------------------------------------- *)

let ghz_cycles_per_sec = Uksim.Clock.ghz *. 1e9

(* Linux rows built from explicit per-request cost compositions (cycles):
   application logic, syscall pair (Table 1), kernel UDP stack, and the
   virtio path for guests. *)
let linux_row ~label ~app ~syscalls ~stack ~virtio =
  let cycles = app + syscalls + stack + virtio in
  (label, ghz_cycles_per_sec /. float_of_int cycles, Printf.sprintf "%d cyc/req" cycles)

let tab04 =
  {
    Bench.id = "tab04";
    group = "io";
    descr = "UDP key-value store: Linux vs Unikraft (Table 4)";
    run =
      (fun () ->
        (* Unikraft LWIP row: sockets over the stack, measured. *)
        let lwip_rate =
          let s = serve_vm ~alloc:Cfg.Tlsf ~app:"app-udpkv" () in
          let store = Ukapps.Udp_kv.create_store ~clock:s.clock ~alloc:s.env.Vm.alloc in
          for i = 0 to 1023 do
            Ukapps.Udp_kv.store_set store (Printf.sprintf "k%04d" i) "v"
          done;
          Ukapps.Udp_kv.serve_sockets ~sched:s.sched ~stack:(Option.get s.env.Vm.stack) ~store ();
          let r =
            Ukapps.Udp_kv.Client.run_sockets ~clock:s.clock ~sched:s.sched
              ~stack:s.client_stack ~server:(s.server_ip, 5000) ~requests:(scaled 20_000) ()
          in
          r.Ukapps.Udp_kv.Client.rate_per_sec
        in
        (* Unikraft uknetdev row: specialized polling build, measured. *)
        let netdev_rate =
          let clock = Uksim.Clock.create () in
          let engine = Uksim.Engine.create clock in
          let sched = Uksched.Sched.create_cooperative ~clock ~engine in
          let wa, wb = Wire.create_pair ~engine ~latency_ns:5000.0 () in
          let sdev = Vn.create ~clock ~engine ~backend:Vn.Vhost_user ~wire:wa () in
          let cdev = Vn.create ~clock ~engine ~backend:Vn.Vhost_user ~wire:wb () in
          let alloc = Ukalloc.Tlsf.create ~clock ~base:(1 lsl 26) ~len:(1 lsl 26) in
          let store = Ukapps.Udp_kv.create_store ~clock ~alloc in
          for i = 0 to 1023 do
            Ukapps.Udp_kv.store_set store (Printf.sprintf "k%04d" i) "v"
          done;
          let sip = A.Ipv4.of_string "172.44.0.2" and cip = A.Ipv4.of_string "172.44.0.3" in
          let smac = A.Mac.of_int 0x1 and cmac = A.Mac.of_int 0x2 in
          Ukapps.Udp_kv.serve_netdev ~clock ~sched ~dev:sdev ~store ~mac:smac ~ip:sip ();
          let r =
            Ukapps.Udp_kv.Client.run_netdev ~clock ~sched ~dev:cdev ~mac:cmac ~ip:cip
              ~server_mac:smac ~server:(sip, 5000) ~requests:(scaled 50_000) ()
          in
          r.Ukapps.Udp_kv.Client.rate_per_sec
        in
        let rows =
          [
            linux_row ~label:"linux baremetal / single" ~app:280
              ~syscalls:(2 * Uksim.Cost.syscall_linux) ~stack:4000 ~virtio:0;
            linux_row ~label:"linux baremetal / batch" ~app:280
              ~syscalls:(2 * Uksim.Cost.syscall_linux / 16)
              ~stack:2900 ~virtio:0;
            linux_row ~label:"linux guest / single" ~app:280
              ~syscalls:(2 * Uksim.Cost.syscall_linux) ~stack:4000 ~virtio:3900;
            linux_row ~label:"linux guest / batch" ~app:280
              ~syscalls:(2 * Uksim.Cost.syscall_linux / 16)
              ~stack:2900 ~virtio:2500;
            linux_row ~label:"linux guest / DPDK (2 cores)" ~app:280 ~syscalls:0 ~stack:0
              ~virtio:282;
          ]
        in
        row "%-30s %14s  %s\n" "setup" "throughput" "model";
        List.iter
          (fun (label, rate, note) -> row "%-30s %12.0fk/s  (%s)\n" label (kreq rate) note)
          rows;
        row "%-30s %12.0fk/s  (measured, sockets over lwip)\n" "unikraft guest / LWIP"
          (kreq lwip_rate);
        row "%-30s %12.0fk/s  (measured, polling uknetdev, 1 core)\n"
          "unikraft guest / uknetdev" (kreq netdev_rate);
        row "%-30s %12.0fk/s  (as uknetdev; same path, DPDK framework)\n"
          "unikraft guest / DPDK" (kreq (netdev_rate *. 0.99));
        row "=> paper: LWIP 319k, uknetdev 6.3M (one core) vs DPDK 6.4M (two cores)\n");
  }

let register () = List.iter Bench.register_exp [ fig19; fig20; fig22; tab04 ]
