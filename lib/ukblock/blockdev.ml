type error = Ebounds | Eio | Equeue_full

let error_to_string = function
  | Ebounds -> "out of bounds"
  | Eio -> "I/O error"
  | Equeue_full -> "queue full"

type request =
  | Read of { lba : int; sectors : int }
  | Write of { lba : int; data : bytes }

type completion = {
  req : request;
  result : (bytes, error) result;
}

type t = {
  name : string;
  sector_size : int;
  capacity_sectors : int;
  submit : request array -> int;
  poll_completions : max:int -> completion list;
  pending : unit -> int;
  set_completion_handler : (unit -> unit) option -> unit;
  read_sync : lba:int -> sectors:int -> (bytes, error) result;
  write_sync : lba:int -> bytes -> (unit, error) result;
  flush : unit -> unit;
  source : Uktrace.Source.t;
}
