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
  stats : unit -> stats;
}

and stats = { reads : int; writes : int; sectors_read : int; sectors_written : int }

let zero_stats = { reads = 0; writes = 0; sectors_read = 0; sectors_written = 0 }

(* The source closes over [stats] alone: capturing [dev] would keep the
   device's backing store alive for as long as the source is registered. *)
let register_source (dev : t) =
  let stats = dev.stats in
  Uktrace.Registry.register
    (Uktrace.Source.make ~subsystem:"ukblock" ~name:dev.name (fun () ->
         let s = stats () in
         [
           ("reads", Uktrace.Metric.Count s.reads);
           ("writes", Uktrace.Metric.Count s.writes);
           ("sectors_read", Uktrace.Metric.Count s.sectors_read);
           ("sectors_written", Uktrace.Metric.Count s.sectors_written);
         ]))
