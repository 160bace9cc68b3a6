type violation =
  | Heap_buffer_overflow of { addr : int; block : int }
  | Use_after_free of { addr : int; block : int }
  | Double_free of { addr : int }
  | Wild_access of { addr : int }

exception Asan of violation

let shadow_check_cost = 6 (* shadow byte load + compare per access *)
let poison_base_cost = 28 (* quarantine bookkeeping per malloc/free *)

let redzone = 32 (* bytes of padding on each side of an allocation *)

(* Poisoning writes one shadow byte per 8 payload bytes plus the two
   redzones. *)
let poison_cost size = poison_base_cost + ((size / 8) + (redzone / 4)) / 4

module Imap = Map.Make (Int)

type region = { payload : int; size : int; inner : int (* inner block start *) }

type t = {
  clock : Uksim.Clock.t;
  inner_alloc : Alloc.t;
  quarantine_cap : int;
  mutable live : region Imap.t; (* payload addr -> region *)
  mutable freed : region Imap.t; (* payload addr -> region, quarantined *)
  quarantine : int Queue.t; (* payload addrs, FIFO *)
  checked : Alloc.t;
  mutable checks : int;
}

let charge t c = Uksim.Clock.advance t.clock c

(* Locate the region (live or quarantined) whose padded footprint covers
   [addr], distinguishing payload from redzone hits. *)
let covering_with_redzone map addr =
  match Imap.find_last_opt (fun p -> p <= addr + redzone) map with
  | Some (_, r) ->
      if addr >= r.payload - redzone && addr < r.payload + r.size + redzone then
        if addr >= r.payload && addr < r.payload + r.size then Some (`Payload r)
        else Some (`Redzone r)
      else None
  | None -> None

let check_one t addr =
  t.checks <- t.checks + 1;
  charge t shadow_check_cost;
  match covering_with_redzone t.live addr with
  | Some (`Payload _) -> ()
  | Some (`Redzone r) -> raise (Asan (Heap_buffer_overflow { addr; block = r.payload }))
  | None -> (
      match covering_with_redzone t.freed addr with
      | Some (`Payload r | `Redzone r) ->
          raise (Asan (Use_after_free { addr; block = r.payload }))
      | None -> raise (Asan (Wild_access { addr })))

let check_range t ~addr ~len =
  if len <= 0 then invalid_arg "Asan.check: non-positive length";
  (* First, last, and the shadow granule boundaries in between. *)
  check_one t addr;
  if len > 1 then check_one t (addr + len - 1);
  let granule = 8 in
  let first = (addr / granule) + 1 in
  let last = (addr + len - 1) / granule in
  for g = first to last - 1 do
    t.checks <- t.checks + 1;
    charge t shadow_check_cost;
    ignore g
  done

let release_overflow t =
  while Queue.length t.quarantine > t.quarantine_cap do
    let payload = Queue.pop t.quarantine in
    match Imap.find_opt payload t.freed with
    | Some r ->
        t.freed <- Imap.remove payload t.freed;
        t.inner_alloc.Alloc.free r.inner
    | None -> ()
  done

let wrap ~clock ?(quarantine = 64) inner_alloc =
  let rec t =
    {
      clock;
      inner_alloc;
      quarantine_cap = quarantine;
      live = Imap.empty;
      freed = Imap.empty;
      quarantine = Queue.create ();
      checks = 0;
      checked =
        {
          inner_alloc with
          Alloc.name = inner_alloc.Alloc.name ^ "+asan";
          malloc = (fun size -> asan_malloc t size);
          calloc = (fun n size -> if n <= 0 || size <= 0 then None else asan_malloc t (n * size));
          memalign = (fun ~align:_ size -> asan_malloc t size);
          free = (fun addr -> asan_free t addr);
          realloc =
            (fun addr size ->
              if addr = 0 then asan_malloc t size
              else
                match Imap.find_opt addr t.live with
                | None -> None
                | Some r -> (
                    match asan_malloc t size with
                    | None -> None
                    | Some naddr ->
                        Uksim.Clock.advance clock (Uksim.Cost.memcpy (min r.size size));
                        asan_free t addr;
                        Some naddr));
        };
    }
  and asan_malloc t size =
    if size <= 0 then None
    else
      match t.inner_alloc.Alloc.malloc (size + (2 * redzone)) with
      | None -> None
      | Some inner ->
          charge t (poison_cost size);
          let payload = inner + redzone in
          t.live <- Imap.add payload { payload; size; inner } t.live;
          Some payload
  and asan_free t payload =
    match Imap.find_opt payload t.live with
    | Some r ->
        charge t (poison_cost r.size);
        t.live <- Imap.remove payload t.live;
        t.freed <- Imap.add payload r t.freed;
        Queue.push payload t.quarantine;
        release_overflow t
    | None ->
        if Imap.mem payload t.freed then raise (Asan (Double_free { addr = payload }))
        else raise (Asan (Wild_access { addr = payload }))
  in
  t

let alloc t = t.checked
let check_read t ~addr ~len = check_range t ~addr ~len
let check_write t ~addr ~len = check_range t ~addr ~len
let checks_performed t = t.checks
