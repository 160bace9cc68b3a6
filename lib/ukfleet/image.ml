type app = Httpd | Infer of int | Store

type t = { name : string; app : app; mem_mb : int }

let httpd = { name = "httpd"; app = Httpd; mem_mb = 8 }

(* Model weights live in guest memory after the boot-time load, so the
   footprint (what a snapshot clone must copy) is base + model. *)
let infer ?(size_mb = 32) () =
  { name = Printf.sprintf "infer-%dmb" size_mb; app = Infer size_mb; mem_mb = 8 + size_mb }

(* The merkle store's working set is the object cache plus journal
   staging; the data itself lives on the virtio disk, so the guest
   footprint stays small and a cold boot pays journal replay instead of
   a weight stream. *)
let store () = { name = "store"; app = Store; mem_mb = 12 }

let profile_app t =
  match t.app with
  | Httpd -> "nginx"
  | Store -> "redis"
  | Infer _ -> "inference"

type calib = {
  breakdown : Ukplat.Vmm.boot_breakdown;
  boot_report : Ukboot.Boot.report;
  service_ns : float;
}

module A = Uknetstack.Addr
module S = Uknetstack.Stack

(* The calibration rig: a server and a client machine over a loopback
   link, one shared timeline. The image's constructors build the server
   side; the client side exists only to drive the measuring load. *)
type rig = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  sched : Uksched.Sched.t;
  server_dev : Uknetdev.Netdev.t;
  client_dev : Uknetdev.Netdev.t;
  mutable server_stack : S.t option;
  mutable infer_prep : (Ukvfs.Blockfs.t * string) option;
      (* host-side published weight store, set before boot *)
  mutable store_prep : Ukblock.Blockdev.t option;
      (* host-formatted+populated merkle store disk, mounted at boot *)
}

let mk_rig () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let sched = Uksched.Sched.create_cooperative ~clock ~engine in
  let server_dev, client_dev = Uknetdev.Loopback.create_pair ~clock ~engine () in
  {
    clock;
    engine;
    sched;
    server_dev;
    client_dev;
    server_stack = None;
    infer_prep = None;
    store_prep = None;
  }

(* The weight disk is populated by the host (image build / registry pull)
   before the VMM ever starts, so this runs pre-boot: the clock it
   advances is host time, not part of the measured breakdown. *)
let store_keys = 256

let prep img rig =
  match img.app with
  | Httpd -> ()
  | Store ->
      (* Format + populate + commit happen host-side (registry image
         build); the boot-time cost the calibration should see is the
         mount: slot scan plus journal replay of whatever the image
         shipped undurable — here nothing, because the build ends on a
         checkpoint. *)
      let dev =
        Ukblock.Virtio_blk.create ~clock:rig.clock ~engine:rig.engine
          ~capacity_sectors:32768 ()
      in
      let st =
        match Ukstore.Store.format ~clock:rig.clock ~journal_sectors:512 dev with
        | Ok s -> s
        | Error e -> invalid_arg ("Image: store format: " ^ Ukvfs.Fs.errno_to_string e)
      in
      for i = 0 to store_keys - 1 do
        match Ukstore.Store.set st (Printf.sprintf "k%05d" i) (String.make 32 'v') with
        | Ok () -> ()
        | Error e -> invalid_arg ("Image: store set: " ^ Ukvfs.Fs.errno_to_string e)
      done;
      (match Ukstore.Store.commit st ~msg:"image build" () with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Image: store commit: " ^ Ukvfs.Fs.errno_to_string e));
      (match Ukstore.Store.checkpoint st with
      | Ok () -> ()
      | Error e ->
          invalid_arg ("Image: store checkpoint: " ^ Ukvfs.Fs.errno_to_string e));
      rig.store_prep <- Some dev
  | Infer size_mb ->
      let dev =
        Ukblock.Virtio_blk.create ~clock:rig.clock ~engine:rig.engine
          ~capacity_sectors:((size_mb + 2) * 2048) ()
      in
      rig.infer_prep <- Some (Ukapps.Infer.publish ~clock:rig.clock ~dev ~size_mb ())

let stack_conf ip mac =
  {
    S.mac = A.Mac.of_int mac;
    ip = A.Ipv4.of_string ip;
    netmask = A.Ipv4.of_string "255.255.255.0";
    gateway = None;
  }

let inittab_of_rig img rig =
  let tab = Ukboot.Boot.Inittab.create () in
  let alloc = ref None in
  Ukboot.Boot.Inittab.register tab ~level:Ukboot.Boot.Level.alloc ~name:"ukalloc/tlsf"
    (fun () ->
      let bytes = Uksim.Units.mib img.mem_mb in
      alloc := Some (Ukalloc.Tlsf.create ~clock:rig.clock ~base:bytes ~len:bytes));
  Ukboot.Boot.Inittab.register tab ~level:Ukboot.Boot.Level.bus ~name:"uknetstack"
    (fun () ->
      rig.server_stack <-
        Some
          (S.create ~clock:rig.clock ~engine:rig.engine ~sched:rig.sched ~dev:rig.server_dev
             (stack_conf "10.99.0.1" 0xF1EE7)));
  Ukboot.Boot.Inittab.register tab ~level:Ukboot.Boot.Level.late
    ~name:
      (match img.app with
      | Httpd -> "app/httpd"
      | Store -> "app/store"
      | Infer _ -> "app/infer")
    (fun () ->
      let stack = Option.get rig.server_stack in
      let alloc = Option.get !alloc in
      match img.app with
      | Httpd ->
          ignore
            (Ukapps.Httpd.create ~clock:rig.clock ~sched:rig.sched ~stack ~alloc
               (Ukapps.Httpd.In_memory [ ("/index.html", Ukapps.Httpd.default_page) ]))
      | Store ->
          (* Mount runs inside the constructor: recovery (slot scan +
             journal replay) is charged to boot, exactly like a crashed
             instance restarting in the fleet would pay it. *)
          let dev = Option.get rig.store_prep in
          let store =
            match Ukstore.Store.open_ ~clock:rig.clock dev with
            | Ok s -> s
            | Error e ->
                invalid_arg ("Image: store mount: " ^ Ukvfs.Fs.errno_to_string e)
          in
          ignore
            (Ukapps.Store.serve ~transport:Ukapps.Serve.Socket ~clock:rig.clock ~sched:rig.sched
               ~stack ~store ())
      | Infer _ ->
          (* The weight load runs inside the constructor, so a cold boot's
             breakdown charges the full stream — the dominant term for
             large models. *)
          let store, name = Option.get rig.infer_prep in
          let vfs = Ukvfs.Vfs.create ~clock:rig.clock in
          (match Ukvfs.Vfs.mount vfs ~at:"/models" (Ukvfs.Blockfs.to_fs store) with
          | Ok () -> ()
          | Error e -> invalid_arg ("Image: mount: " ^ Ukvfs.Fs.errno_to_string e));
          let model =
            match
              Ukapps.Infer.load ~clock:rig.clock ~vfs ~store
                ~path:("/models/" ^ name) ()
            with
            | Ok m -> m
            | Error e -> invalid_arg ("Image: weight load: " ^ e)
          in
          ignore
            (Ukapps.Infer.create ~clock:rig.clock ~engine:rig.engine ~sched:rig.sched
               ~stack ~alloc ~model ()));
  tab

(* Closed-loop measurement: one connection, sequential requests, so the
   elapsed-per-request quotient is the full per-request occupancy of one
   instance (stack traversal both ways + application work). *)
let calib_requests = 256

let measure_service img rig =
  let client =
    S.create ~clock:rig.clock ~engine:rig.engine ~sched:rig.sched ~dev:rig.client_dev
      (stack_conf "10.99.0.2" 0xC11E7)
  in
  let server =
    ( A.Ipv4.of_string "10.99.0.1",
      match img.app with Httpd -> 80 | Store -> 7000 | Infer _ -> 8000 )
  in
  let proto =
    match img.app with
    | Httpd -> Ukapps.Httpd.client ()
    | Store ->
        (* The calibration mix is the benchmark default (half mutations,
           periodic COMMIT) so service_ns amortizes journal fsyncs the way
           steady-state traffic does. *)
        Ukapps.Store.client ~commit_every:32 ()
    | Infer _ -> Ukapps.Infer.client ()
  in
  let r =
    Ukapps.Load.run ~transport:Ukapps.Serve.Socket ~clock:rig.clock ~sched:rig.sched
      ~stack:client ~server ~connections:1 ~requests:calib_requests proto
  in
  r.Ukapps.Load.elapsed_ns /. float_of_int r.Ukapps.Load.requests

let cache : (string * string, calib) Hashtbl.t = Hashtbl.create 8

let calibrate img ~vmm =
  let key = (img.name, Ukplat.Vmm.name vmm) in
  match Hashtbl.find_opt cache key with
  | Some c -> c
  | None ->
      let rig = mk_rig () in
      prep img rig;
      let tab = inittab_of_rig img rig in
      let breakdown, boot_report =
        Ukplat.Vmm.boot vmm ~clock:rig.clock ~nics:1 ~inittab:tab ()
      in
      let service_ns = measure_service img rig in
      let c = { breakdown; boot_report; service_ns } in
      Hashtbl.replace cache key c;
      c

let uncache img =
  Hashtbl.iter
    (fun ((name, _) as key) _ -> if name = img.name then Hashtbl.remove cache key)
    (Hashtbl.copy cache)
