(* The Linux-compat specialization ladder (paper §4.1, Table 1): replay
   nginx-class and redis-class syscall traces end to end under each call
   convention — native link, binary-rewritten, binary-compat trap, Linux
   VM — and price the compat surface in image bytes via DCE. *)

open Common
module L = Ukbuild.Linker
module Cat = Ukbuild.Catalog
module D = Ukcompat.Driver
module Trace = Ukcompat.Trace

let seed = 42

let image_bytes ~compat app =
  let r = Cat.registry () in
  let roots =
    Cat.app_roots ~app ~net:true ~fs:true ~compat ~alloc:"alloc-tlsf" ~sched:"sched-coop" ()
  in
  match L.link r ~name:app ~platform:"plat-kvm" ~roots ~flags:{ L.dce = true; lto = true } () with
  | Ok img -> img.L.image_bytes
  | Error e -> failwith e

let report_images () =
  row "%-12s %14s %14s %10s\n" "image" "bytes" "+compat" "delta";
  List.iter
    (fun (app, tag) ->
      let plain = image_bytes ~compat:false app in
      let with_compat = image_bytes ~compat:true app in
      row "%-12s %14d %14d %10d\n" app plain with_compat (with_compat - plain);
      Bench.emit_i (tag ^ "_image_bytes") plain;
      Bench.emit_i (tag ^ "_image_bytes_compat") with_compat)
    [ ("app-nginx", "nginx"); ("app-redis", "redis") ]

let run_ladder (app, tag) =
  Bench.trial ();
  let reports =
    Bench.phase tag (fun () ->
        match D.ladder ~seed app with Ok r -> r | Error e -> failwith e)
  in
  row "\n%s trace: %d syscalls recorded\n" tag (Trace.length (D.trace_of app));
  row "%-18s %12s %12s %8s %8s %8s %8s\n" "rung" "ladder-cyc" "wall-cyc" "calls" "retries"
    "enosys" "client";
  List.iter
    (fun (r : D.report) ->
      let o = r.D.outcome in
      row "%-18s %12d %12d %8d %8d %8d %8s\n" (D.rung_name r.D.rung) r.D.ladder_cycles
        r.D.wall_cycles o.Trace.calls o.Trace.retries o.Trace.enosys
        (if r.D.client_ok then "ok" else "FAIL");
      let key s = Printf.sprintf "%s_%s_%s" tag (D.rung_name r.D.rung) s in
      Bench.emit_i (key "ladder_cycles") r.D.ladder_cycles;
      Bench.emit_i (key "boundary_cycles") o.Trace.boundary_cycles;
      Bench.emit_i (key "retries") o.Trace.retries)
    reports;
  let cyc rung =
    (List.find (fun r -> r.D.rung = rung) reports).D.ladder_cycles
  in
  let boundary rung =
    (List.find (fun r -> r.D.rung = rung) reports).D.outcome.Trace.boundary_cycles
  in
  let ordered =
    cyc D.Native < cyc D.Rewritten && cyc D.Rewritten < cyc D.Compat && cyc D.Compat < cyc D.Linux
  in
  let enosys =
    List.fold_left (fun acc r -> acc + r.D.outcome.Trace.enosys) 0 reports
  in
  let clients_ok = List.for_all (fun r -> r.D.client_ok) reports in
  let ratio = float_of_int (boundary D.Linux) /. float_of_int (boundary D.Native) in
  row "=> ladder %s; boundary native vs linux: %.1fx; enosys on hot path: %d\n"
    (if ordered then "strictly ordered" else "OUT OF ORDER") ratio enosys;
  Bench.emit_b (tag ^ "_ladder_ordered") ordered;
  Bench.emit_i (tag ^ "_enosys") enosys;
  Bench.emit_b (tag ^ "_client_ok") clients_ok;
  Bench.emit_f ~fmt:"%.1f" (tag ^ "_boundary_ratio_native_linux") ratio;
  (ordered, enosys = 0 && clients_ok, ratio >= 5.0)

(* One field suffices: the state hash digests client bytes, process
   memory, per-entry results, shim call counts and the final clock. *)
let replay (app, rung, tag) =
  let go () =
    match D.run ~seed:11 ~rung app with
    | Ok r -> [ ("state_hash", r.D.state_hash) ]
    | Error e -> failwith e
  in
  Bench.replay ("compat_" ^ tag) ~first:(go ()) go

let compat =
  {
    Bench.id = "compat";
    group = "compat";
    descr = "Linux-compat ladder: traces under native/rewritten/compat/linux dispatch";
    run =
      (fun () ->
        report_images ();
        let nginx = run_ladder (D.Nginx, "nginx") in
        let redis = run_ladder (D.Redis, "redis") in
        let both f = f nginx && f redis in
        let ordered = both (fun (o, _, _) -> o) in
        let hot_clean = both (fun (_, c, _) -> c) in
        let five_x = both (fun (_, _, r) -> r) in
        row "\nseeded replay (same seed, same state hash)\n";
        List.iter replay [ (D.Nginx, D.Compat, "nginx"); (D.Redis, D.Native, "redis") ];
        Bench.gate "ladder_ordered" ordered;
        Bench.gate "zero_enosys_hot_paths" hot_clean;
        Bench.gate "native_5x_cheaper_boundary" five_x);
  }

let register () = Bench.register_exp compat
