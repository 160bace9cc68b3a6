(* ukstore benchmark: the crash-consistent merkle KV as a fleet workload.

   Four questions drive the experiment:

   1. What does durability cost? The same zero-copy serving path as the
      RESP store, but every mutation hashes into the merkle trie and
      every COMMIT waits for a journal record + fsync (group commit: the
      COMMITs that arrive while one record is in flight share the next).
      The write/read mix sweep prices that against the in-memory RESP
      baseline.

   2. How fast is recovery? Mount time is slot scan + log replay from
      the live root slot's position, so it must scale with the records
      written since the last flip — the depth sweep measures that curve,
      which [journal_sectors] bounds.

   3. Is recovery *correct*? The crash matrix kills the device at every
      sector boundary of a commit's journal record and remounts: an
      acked commit must survive, an unacked one must vanish, and history
      below the survivor must stay intact. Zero lost durable commits.

   4. Does it hold up as a fleet citizen? A 10x flash crowd on the
      snapshot-cloned image must lose zero responses (single-host fleet
      and multi-host ukcluster), and a fixed seed must replay to
      identical store roots and trace hashes (store_replay).

   5. How fast does the device fill? Each object is written once, in
      the record that made it durable, and a checkpoint is one slot
      sector: the space phase counts device sectors written per commit
      and commits until ENOSPC on a fixed device. *)

open Common
module Fleet = Ukfleet.Fleet
module Image = Ukfleet.Image
module Workload = Ukfleet.Workload
module Autoscaler = Ukfleet.Autoscaler
module Cluster = Ukapps.Cluster
module UC = Ukcluster.Cluster
module Store = Ukapps.Store
module St = Ukstore.Store
module Fb = Ukfault.Faultblk

let netbuf = Ukapps.Serve.Netbuf { rtc = true }

let seed = 0x5702E
let shed_after_ns = Uksim.Units.msec 50.0
let bucket_ns = Uksim.Units.msec 1.0

let oke = function
  | Ok v -> v
  | Error e -> failwith ("exp_store: " ^ Ukvfs.Fs.errno_to_string e)

(* --- write/read mix, priced against RESP ----------------------------------- *)

let mix_requests () = Bench.scaled 4000

let store_mix write_frac =
  Bench.trial ();
  let c = Cluster.create ~n:1 () in
  ignore (Cluster.add_store c ~transport:netbuf ~keys:256 ());
  let r =
    Cluster.run_load c ~transport:netbuf ~port:7000 ~connections_per_core:8 ~pipeline:8
      ~requests_per_core:(mix_requests ()) (Store.client ~write_frac ~commit_every:64 ())
  in
  (r.Ukapps.Load.rate_per_sec, r.Ukapps.Load.p99_us, r.Ukapps.Load.errors)

let resp_baseline workload =
  Bench.trial ();
  let c = Cluster.create ~n:1 () in
  ignore (Cluster.add_resp c ~transport:netbuf ~populate:256 ());
  let r =
    Cluster.run_load c ~transport:netbuf ~port:6379 ~connections_per_core:8 ~pipeline:8
      ~requests_per_core:(mix_requests ()) (Ukapps.Resp_store.client workload)
  in
  r.Ukapps.Load.rate_per_sec

let run_mix () =
  row "write/read mix: merkle+journal store vs in-memory RESP (zero-copy path)\n";
  let w_rps, w_p99, w_err = store_mix 0.9 in
  let r_rps, r_p99, r_err = store_mix 0.1 in
  let resp_set = resp_baseline Ukapps.Resp_store.Set in
  let resp_get = resp_baseline Ukapps.Resp_store.Get in
  row "  store write-heavy (0.9)  %8.0f req/s  p99 %8.1fus  errors %d\n" w_rps w_p99 w_err;
  row "  store read-heavy  (0.1)  %8.0f req/s  p99 %8.1fus  errors %d\n" r_rps r_p99 r_err;
  row "  resp  SET baseline       %8.0f req/s\n" resp_set;
  row "  resp  GET baseline       %8.0f req/s\n" resp_get;
  row "  => durability tax on the write path: %.2fx vs RESP SET\n" (resp_set /. w_rps);
  Bench.emit_f "store_write_heavy_rps" w_rps;
  Bench.emit_f "store_read_heavy_rps" r_rps;
  Bench.emit_f "store_write_p99_us" w_p99;
  Bench.emit_f "store_read_p99_us" r_p99;
  Bench.emit_f "resp_set_rps" resp_set;
  Bench.emit_f "resp_get_rps" resp_get;
  Bench.emit_f "durability_tax_write" (resp_set /. w_rps);
  (* Priced = the order is physical: reads beat writes (no journal on
     the read path), and the durable store never beats the in-memory
     baseline it adds hashing + journaling on top of. *)
  Bench.gate "write_read_mix_priced"
    (w_err = 0 && r_err = 0 && r_rps > w_rps && resp_set > w_rps)

(* --- recovery time vs journal depth ---------------------------------------- *)

let depths = [ 1; 4; 16; 64; 256 ]

let recover_at depth =
  Bench.trial ();
  let c = Uksim.Clock.create () in
  let dev = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:65536 () in
  let t = oke (St.format ~clock:c ~journal_sectors:4096 dev) in
  (* A populated, checkpointed base image, then [depth] commits left
     sitting in the journal — the state a crash strands on disk. *)
  for i = 0 to 63 do
    ignore (oke (St.set t (Printf.sprintf "base%03d" i) (String.make 24 'b')))
  done;
  ignore (oke (St.commit t ~msg:"base" ()));
  let written () =
    let count = Uktrace.Source.count dev.Ukblock.Blockdev.source in
    (count "writes", count "sectors_written")
  in
  let writes0, sectors0 = written () in
  oke (St.checkpoint t);
  let writes1, sectors1 = written () in
  let ckpt_writes = writes1 - writes0 and ckpt_sectors = sectors1 - sectors0 in
  for i = 1 to depth do
    ignore (oke (St.set t (Printf.sprintf "j%04d" i) (Printf.sprintf "v%d" i)));
    ignore (oke (St.commit t ()))
  done;
  let replayed () = Uktrace.Source.count (St.source ()) "replayed_records" in
  let r0 = replayed () and t0 = Uksim.Clock.ns c in
  ignore (oke (St.open_ ~clock:c dev));
  let dt = Uksim.Clock.ns c -. t0 in
  (replayed () - r0, dt, ckpt_writes = 1 && ckpt_sectors = 1)

let run_recovery () =
  row "\nrecovery: mount time vs journal depth (records replayed since checkpoint)\n";
  let curve =
    List.map
      (fun depth ->
        let replayed, dt, one_sector = recover_at depth in
        row "  depth %4d  replayed %4d  mount %8.1f us\n" depth replayed (us dt);
        Bench.emit_f (Printf.sprintf "recovery_depth%d_us" depth) (us dt);
        (depth, replayed, dt, one_sector))
      depths
  in
  let all_replayed = List.for_all (fun (d, r, _, _) -> r = d) curve in
  let dt_of d = match List.find (fun (d', _, _, _) -> d' = d) curve with _, _, t, _ -> t in
  row "  => replay scales %.1fx from depth 1 to 256\n" (dt_of 256 /. dt_of 1);
  Bench.gate "recovery_replays_full_journal" all_replayed;
  Bench.gate "recovery_scales_with_depth" (dt_of 256 > dt_of 1);
  (* A checkpoint copies nothing: its one write is the root slot. *)
  Bench.gate "checkpoint_writes_one_sector" (List.for_all (fun (_, _, _, ok) -> ok) curve)

(* --- crash matrix: zero lost durable commits ------------------------------- *)

let crash_case ~arm_sectors ~pre =
  let c = Uksim.Clock.create () in
  let inner = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:16384 () in
  let fb = Fb.wrap ~clock:c ~rng:(Uksim.Rng.create 7) ~plan:(Fb.plan ()) inner in
  let t = oke (St.format ~clock:c ~journal_sectors:64 (Fb.dev fb)) in
  for i = 1 to pre do
    ignore (oke (St.set t (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i)));
    ignore (oke (St.commit t ()))
  done;
  let survivor = St.head t in
  Fb.crash_after_writes fb arm_sectors;
  ignore (oke (St.set t "doomed" "payload"));
  let outcome = St.commit t () in
  Fb.revive fb;
  let t' = oke (St.open_ ~clock:c inner) in
  let doomed = oke (St.get t' "doomed") in
  let head_ok, doomed_ok =
    match outcome with
    | Ok h -> (St.head t' = h, doomed = Some "payload")
    | Error _ -> (St.head t' = survivor, doomed = None)
  in
  let history_ok =
    pre = 0
    || oke (St.get t' (Printf.sprintf "k%d" pre)) = Some (Printf.sprintf "v%d" pre)
  in
  head_ok && doomed_ok && history_ok

let run_crash_matrix () =
  row "\ncrash matrix: device dies at every sector boundary of a commit record\n";
  let cases = ref 0 and failures = ref 0 in
  List.iter
    (fun pre ->
      for arm = 0 to 12 do
        incr cases;
        if not (crash_case ~arm_sectors:arm ~pre) then begin
          incr failures;
          row "  LOST at arm=%d pre=%d\n" arm pre
        end
      done)
    [ 0; 3 ];
  row "  %d crash points, %d violations\n" !cases !failures;
  Bench.emit_i "crash_points" !cases;
  Bench.gate "recovery_zero_lost_commits" (!failures = 0)

(* --- space: how fast the log fills ---------------------------------------- *)

let space_sectors = 16384

(* Commits of 16 random SETs over 1,024 keys on a fixed device, until
   ENOSPC: the sectors the device wrote per commit, and how many commits
   it held. *)
let run_space () =
  row "\nspace: commits of 16 random SETs over 1,024 keys, %d-sector device\n" space_sectors;
  Bench.trial ();
  let c = Uksim.Clock.create () in
  let dev = Ukblock.Virtio_blk.create_ramdisk ~clock:c ~capacity_sectors:space_sectors () in
  let t = oke (St.format ~clock:c ~journal_sectors:256 dev) in
  let rng = Uksim.Rng.create seed in
  let rec fill n =
    for _ = 1 to 16 do
      oke
        (St.set t
           (Printf.sprintf "key%04d" (Uksim.Rng.int rng 1024))
           (Printf.sprintf "value-%d" (Uksim.Rng.int rng 1_000_000)))
    done;
    match St.commit t () with
    | Ok _ -> fill (n + 1)
    | Error Ukvfs.Fs.Enospc -> n
    | Error e -> failwith ("exp_store: space: " ^ Ukvfs.Fs.errno_to_string e)
  in
  let commits = fill 0 in
  let per_commit =
    float_of_int (Uktrace.Source.count dev.Ukblock.Blockdev.source "sectors_written")
    /. float_of_int commits
  in
  row "  %d commits until ENOSPC, %.1f device sectors written per commit\n" commits per_commit;
  Bench.emit_i "store_commits_to_enospc" commits;
  Bench.emit_f "store_sectors_per_commit" per_commit

(* --- flash crowd on the fleet + multi-host cluster ------------------------- *)

let horizon ms = Uksim.Units.msec (if Bench.fast then ms /. 4.0 else ms)

let spike_workload cap =
  let dur = horizon 150.0 in
  Workload.spike ~base_rps:(1.5 *. cap) ~factor:10.0 ~at_ns:(0.2 *. dur)
    ~spike_ns:(0.4 *. dur) ~duration_ns:dur

let spike_image = Image.store ()

let mk_fleet () =
  Bench.trial ();
  Fleet.create ~seed ~boot_mode:Fleet.Snapshot ~autoscale:Autoscaler.default ~initial:2
    ~shed_after_ns ~slo_bucket_ns:bucket_ns ~image:spike_image ()

let run_spike () =
  row "\nflash crowd: 10x spike on the snapshot-cloned store fleet\n";
  let cap = 1e9 /. (Fleet.costs (Fleet.create ~image:spike_image ())).Fleet.service_ns in
  let r = Fleet.run (mk_fleet ()) (spike_workload cap) in
  row "  p50 %6.0fus  p99 %8.0fus  shed %d  lost %d  clones %d  peak %d\n" r.Fleet.p50_us
    r.Fleet.p99_us r.Fleet.shed r.Fleet.lost r.Fleet.clones r.Fleet.peak_instances;
  Bench.emit_f "store_spike_p99_us" r.Fleet.p99_us;
  Bench.emit_i "store_spike_shed" r.Fleet.shed;
  Bench.emit_i "store_spike_lost" r.Fleet.lost;
  Bench.emit_i "store_spike_peak" r.Fleet.peak_instances;
  Bench.gate "store_spike_zero_lost" (r.Fleet.lost = 0);
  (* And across hosts: the same image served by the fault-tolerant tier. *)
  Bench.trial ();
  let c = UC.create ~seed ~n_hosts:2 ~image:spike_image () in
  let rc =
    UC.run c
      (Workload.diurnal ~base_rps:cap ~amplitude:0.5
         ~period_ns:(horizon 40.0) ~duration_ns:(horizon 120.0))
  in
  row "  ukcluster: offered %d  completed %d  shed %d  lost %d  p99 %8.0fus\n"
    rc.UC.offered rc.UC.completed rc.UC.shed rc.UC.lost rc.UC.p99_us;
  Bench.emit_i "store_cluster_offered" rc.UC.offered;
  Bench.emit_i "store_cluster_lost" rc.UC.lost;
  Bench.gate "store_cluster_zero_lost" (rc.UC.lost = 0)

(* --- seeded replay ---------------------------------------------------------- *)

let run_replay () =
  row "\nseeded replay: same mix, same seed => identical store roots + trace\n";
  let go () =
    Bench.trial ();
    let c = Cluster.create ~n:2 () in
    let srvs = Cluster.add_store c ~transport:netbuf ~keys:64 () in
    let r =
      Cluster.run_load c ~transport:netbuf ~port:7000 ~connections_per_core:4
        ~requests_per_core:(Bench.scaled 2000) (Store.client ~write_frac:0.3 ~commit_every:40 ())
    in
    (r, Array.map Store.state_hash srvs, Cluster.trace_hash c)
  in
  let fingerprint (r, roots, hash) =
    Bench.fp_i "trace_hash" hash
    :: List.mapi (fun i root -> Bench.fp_i (Printf.sprintf "root%d" i) root) (Array.to_list roots)
    @ load_fingerprint r
  in
  let ((r, _, hash) as first) = go () in
  Bench.emit_s "store_trace_hash" (Printf.sprintf "%016x" hash);
  Bench.gate "store_replay_zero_errors" (r.Ukapps.Load.errors = 0);
  Bench.replay "store" ~first:(fingerprint first) (fun () -> fingerprint (go ()))

let run () =
  Bench.phase "mix" run_mix;
  Bench.phase "recovery" run_recovery;
  Bench.phase "crash" run_crash_matrix;
  Bench.phase "space" run_space;
  Bench.phase "spike" run_spike;
  Bench.phase "replay" run_replay

let register () =
  Bench.register ~id:"store" ~group:"store"
    ~descr:
      "crash-consistent merkle KV: durability tax, recovery curve, crash matrix, space, spike, \
       replay"
    run
