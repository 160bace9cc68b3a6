(* Host-speed probes. On a shared host the simulator's wall time swings by
   tens of percent from minute to minute as neighbours come and go, which
   would drown any regression a wall-clock metric is meant to catch. A
   fixed kernel, run for under a millisecond every [every] coordinator
   steps, samples the host's speed over the same interval as the
   simulation; host times are then reported scaled to the kernel's
   duration on a quiet host ([ref_s]), i.e. in seconds at a reference host
   speed. The kernel shares no code with the simulator, so a change to the
   simulator moves the scaled time and not the probe. *)

let now = Unix.gettimeofday

(* What the kernel takes on a quiet host; only the unit of the scaled
   times depends on it. *)
let ref_s = 0.0006

(* Hash-table updates and lookups with short-lived allocation: the kind
   of work the simulator spends its time on, in a cache-resident table.
   Of the kernels tried, this one tracked the simulator's own slowdowns
   most closely. *)
let kernel () =
  let h = Hashtbl.create 64 and acc = ref 0 in
  for i = 1 to 12_000 do
    Hashtbl.replace h (i land 63) (i, [ !acc ]);
    match Hashtbl.find_opt h ((i * 7) land 63) with
    | Some (x, l) -> acc := !acc + x + List.length l
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc)

let time f =
  let t = now () in
  f ();
  now () -. t

(* The median of five kernel runs: the host speed right now. *)
let sample () =
  let a = Array.init 5 (fun _ -> time kernel) in
  Array.sort compare a;
  a.(2)

(* Scale a host duration measured while the kernel took [probe_s]. *)
let scale ~probe_s d = d *. ref_s /. probe_s

type t = { mutable spent : float; mutable runs : int; mutable steps : int }

let every = 1000

let create () = { spent = 0.0; runs = 0; steps = 0 }

(* A step observer: forwards every step, and probes every [every]th. *)
let observer t forward ~core ~cycles =
  forward ~core ~cycles;
  t.steps <- t.steps + 1;
  if t.steps mod every = 0 then begin
    t.spent <- t.spent +. time kernel;
    t.runs <- t.runs + 1
  end

(* The wall time of a run the observer watched, without the probes'
   own time, at reference host speed. *)
let scaled_wall t wall =
  let probe_s = if t.runs = 0 then sample () else t.spent /. float_of_int t.runs in
  scale ~probe_s (wall -. t.spent)
