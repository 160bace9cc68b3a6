(** The ukblock API (paper Fig 4, scenario 8): queue-based block I/O with
    the same design philosophy as uknetdev — the application owns buffers
    and submits request batches; completion is polled or signalled.

    Disk-bound applications (the paper's database example) can bypass
    vfscore entirely and program against this API. *)

type error = Ebounds | Eio | Equeue_full

val error_to_string : error -> string

type request =
  | Read of { lba : int; sectors : int }
  | Write of { lba : int; data : bytes }  (** length = k * sector_size *)

type completion = {
  req : request;
  result : (bytes, error) result;  (** read payload, or empty on write *)
}

type t = {
  name : string;
  sector_size : int;
  capacity_sectors : int;
  submit : request array -> int;
      (** Enqueue as many as fit; returns the count accepted. *)
  poll_completions : max:int -> completion list;
  pending : unit -> int;  (** submitted, not yet completed *)
  set_completion_handler : (unit -> unit) option -> unit;
      (** Interrupt-style notification when completions become available
          while the queue was idle. *)
  read_sync : lba:int -> sectors:int -> (bytes, error) result;
      (** Convenience: submit one read and wait for its own completion;
          completions of [submit]ted requests stay queued for
          [poll_completions]. *)
  write_sync : lba:int -> bytes -> (unit, error) result;
  flush : unit -> unit;
  source : Uktrace.Source.t;
      (** The device's ["ukblock.<name>"] source, registered when the
          device is created: completed [reads], [writes], [sectors_read]
          and [sectors_written]. A wrapper built with [{ dev with ... }]
          shares it. *)
}
