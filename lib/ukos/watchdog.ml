type t = {
  clock : Uksim.Clock.t;
  engine : Uksim.Engine.t;
  timeout : int; (* cycles *)
  on_bite : (t -> unit) option;
  mutable last_pet : int;
  mutable bites : int;
  mutable armed : bool;
}

(* One expiry event is in flight at any time: on fire it either bites and
   re-arms, or reschedules itself at the petted deadline. *)
let rec arm t at_cycle =
  Uksim.Engine.at t.engine at_cycle (fun () -> check t)

and check t =
  if t.armed then begin
    let now = Uksim.Clock.cycles t.clock in
    let deadline = t.last_pet + t.timeout in
    if now >= deadline then begin
      t.bites <- t.bites + 1;
      t.last_pet <- now; (* fresh grace period after a bite *)
      (match t.on_bite with Some f -> f t | None -> ());
      if t.armed then arm t (now + t.timeout)
    end
    else arm t deadline
  end

let create ~clock ~engine ~timeout_ns ?on_bite () =
  if timeout_ns <= 0.0 then invalid_arg "Watchdog.create: timeout must be positive";
  let t =
    { clock; engine; timeout = Uksim.Clock.cycles_of_ns timeout_ns; on_bite;
      last_pet = Uksim.Clock.cycles clock; bites = 0; armed = true }
  in
  arm t (t.last_pet + t.timeout);
  t

let pet t = t.last_pet <- Uksim.Clock.cycles t.clock
let stop t = t.armed <- false
let bites t = t.bites
