let work_cycles = 2400 (* printf formatting + serial console write *)

let main ~clock =
  Uksim.Clock.advance clock work_cycles;
  "Hello world!"
