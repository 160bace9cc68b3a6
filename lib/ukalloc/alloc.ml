type t = {
  name : string;
  malloc : int -> int option;
  calloc : int -> int -> int option;
  memalign : align:int -> int -> int option;
  free : int -> unit;
  realloc : int -> int -> int option;
  availmem : unit -> int;
  source : Uktrace.Source.t;
}

let uk_malloc a size = a.malloc size
let uk_calloc a n size = a.calloc n size
let uk_free a addr = a.free addr
let uk_memalign a ~align size = a.memalign ~align size
let uk_realloc a addr size = a.realloc addr size

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let round_up n align =
  if not (is_power_of_two align) then invalid_arg "Alloc.round_up: align not a power of two";
  (n + align - 1) land lnot (align - 1)

let log2_floor n =
  if n <= 0 then invalid_arg "Alloc.log2_floor";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let log2_ceil n =
  let f = log2_floor n in
  if 1 lsl f = n then f else f + 1

module Counts = struct
  type t = {
    mutable allocs : int;
    mutable frees : int;
    mutable failed : int;
    mutable in_use : int;
    mutable peak : int;
  }

  let create () = { allocs = 0; frees = 0; failed = 0; in_use = 0; peak = 0 }

  let alloc c bytes =
    c.allocs <- c.allocs + 1;
    c.in_use <- c.in_use + bytes;
    if c.in_use > c.peak then c.peak <- c.in_use

  let free c bytes =
    c.frees <- c.frees + 1;
    c.in_use <- c.in_use - bytes

  let failed c = c.failed <- c.failed + 1
end

let backend ~name ?(metadata = fun () -> 0) ~memalign ~free ~realloc ~availmem (c : Counts.t) =
  let malloc size = memalign ~align:16 size in
  let level n = Uktrace.Metric.Level (float_of_int n) in
  {
    name;
    malloc;
    calloc = (fun n size -> if n <= 0 || size <= 0 then None else malloc (n * size));
    memalign;
    free;
    realloc;
    availmem;
    source =
      Uktrace.Source.make ~subsystem:"ukalloc" ~name (fun () ->
          [
            ("allocs", Uktrace.Metric.Count c.allocs);
            ("frees", Uktrace.Metric.Count c.frees);
            ("failed", Uktrace.Metric.Count c.failed);
            ("bytes_in_use", level c.in_use);
            ("peak_bytes", level c.peak);
            ("metadata_bytes", level (metadata ()));
          ]);
  }

let traced ~clock (a : t) =
  let sp name f = Uktrace.Tracer.span Uktrace.Tracer.default clock ~cat:"ukalloc" name f in
  {
    a with
    malloc = (fun size -> sp "malloc" (fun () -> a.malloc size));
    calloc = (fun n size -> sp "calloc" (fun () -> a.calloc n size));
    memalign = (fun ~align size -> sp "memalign" (fun () -> a.memalign ~align size));
    free = (fun addr -> sp "free" (fun () -> a.free addr));
    realloc = (fun addr size -> sp "realloc" (fun () -> a.realloc addr size));
  }

module Registry = struct
  type allocator = t

  type t = { mutable order : allocator list (* reversed *) }

  let create () = { order = [] }

  let find t name = List.find_opt (fun (a : allocator) -> String.equal a.name name) t.order

  let register t (a : allocator) =
    if List.exists (fun (x : allocator) -> String.equal x.name a.name) t.order then
      invalid_arg (Printf.sprintf "Alloc.Registry.register: duplicate allocator %s" a.name);
    Uktrace.Registry.register a.source;
    t.order <- a :: t.order

  let all t = List.rev t.order

  let default t = match all t with [] -> None | a :: _ -> Some a
end
