type 'a t = { sname : string; mutable v : 'a; handle : Lockset.cell_handle }

let cell ?(name = "cell") v = { sname = name; v; handle = Lockset.register_cell ~name }

let read ?site c =
  Lockset.record c.handle ~write:false ~site:(Option.value site ~default:c.sname);
  c.v

let write ?site c v =
  Lockset.record c.handle ~write:true ~site:(Option.value site ~default:c.sname);
  c.v <- v

let update ?site c f =
  let v = read ?site c in
  write ?site c (f v)

let peek c = c.v
