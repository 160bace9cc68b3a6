let kib n = n * 1024
let mib n = n * 1024 * 1024

let pp_bytes ppf n =
  let f = float_of_int n in
  if n >= 1024 * 1024 * 1024 then Fmt.pf ppf "%.1fGB" (f /. 1073741824.)
  else if n >= 1024 * 1024 then Fmt.pf ppf "%.1fMB" (f /. 1048576.)
  else if n >= 1024 then Fmt.pf ppf "%.0fKB" (f /. 1024.)
  else Fmt.pf ppf "%dB" n

let pp_ns ppf t =
  if t >= 1e9 then Fmt.pf ppf "%.2fs" (t /. 1e9)
  else if t >= 1e6 then Fmt.pf ppf "%.2fms" (t /. 1e6)
  else if t >= 1e3 then Fmt.pf ppf "%.1fus" (t /. 1e3)
  else Fmt.pf ppf "%.1fns" t

let usec x = x *. 1e3
let msec x = x *. 1e6
let sec x = x *. 1e9
