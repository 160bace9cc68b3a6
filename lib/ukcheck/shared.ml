type 'a t = { sname : string; mutable v : 'a; handle : Lockset.cell_handle }

let cell ?(name = "cell") v = { sname = name; v; handle = Lockset.register_cell ~name }

let read c =
  Lockset.record c.handle ~write:false ~site:c.sname;
  c.v

let write c v =
  Lockset.record c.handle ~write:true ~site:c.sname;
  c.v <- v

let update c f = write c (f (read c))

let peek c = c.v
