module A = Ukalloc.Alloc

type t = {
  mutable rng : Uksim.Rng.t option;
  fail_nth : int;
  fail_every : int;
  fail_rate : float;
  mutable attempts : int;
  mutable injected : int;
  mutable pressure : bool;
  mutable on_pressure : (unit -> unit) option;
  mutable shimmed : A.t option;
}

let should_fail t =
  t.attempts <- t.attempts + 1;
  let nth = t.fail_nth > 0 && t.attempts = t.fail_nth in
  let every = t.fail_every > 0 && t.attempts mod t.fail_every = 0 in
  let rate =
    t.fail_rate > 0.0
    && match t.rng with
       | Some rng -> Uksim.Rng.float rng 1.0 < t.fail_rate
       | None -> false
  in
  if nth || every || rate then begin
    t.injected <- t.injected + 1;
    t.pressure <- true;
    (match t.on_pressure with Some f -> f () | None -> ());
    true
  end
  else false

let gate t k = if should_fail t then None else k ()

let wrap ?rng ?(fail_nth = 0) ?(fail_every = 0) ?(fail_rate = 0.0) inner =
  if fail_rate > 0.0 && rng = None then invalid_arg "Faultalloc.wrap: fail_rate needs an rng";
  let t =
    { rng; fail_nth; fail_every; fail_rate; attempts = 0; injected = 0;
      pressure = false; on_pressure = None; shimmed = None }
  in
  let shimmed =
    { inner with
      A.name = inner.A.name ^ "+oom";
      malloc = (fun size -> gate t (fun () -> inner.A.malloc size));
      calloc = (fun n size -> gate t (fun () -> inner.A.calloc n size));
      memalign = (fun ~align size -> gate t (fun () -> inner.A.memalign ~align size));
      realloc = (fun addr size -> gate t (fun () -> inner.A.realloc addr size)) }
  in
  t.shimmed <- Some shimmed;
  t

let alloc t = match t.shimmed with Some a -> a | None -> assert false

let reseed t seed =
  t.rng <- Some (Uksim.Rng.create seed);
  t.attempts <- 0;
  t.injected <- 0;
  t.pressure <- false
let attempts t = t.attempts
let injected_failures t = t.injected
let under_pressure t = t.pressure
let clear_pressure t = t.pressure <- false
let set_pressure_handler t f = t.on_pressure <- f
