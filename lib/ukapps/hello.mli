(** The canonical helloworld unikernel payload (Figs 3, 8, 9, 10, 11). *)

val main : clock:Uksim.Clock.t -> string
(** Formats and "prints" "Hello world!", charging main()'s total cost
    (printf formatting and the serial console write: what runs after
    boot in the boot-time figures); returns the line written. *)
