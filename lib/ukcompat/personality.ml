module Shim = Uksyscall.Shim
module Sysno = Uksyscall.Sysno
module Errno = Uksyscall.Fs_errno
module Vfs = Ukvfs.Vfs
module Stack = Uknetstack.Stack
module Metric = Uktrace.Metric

type t = {
  clock : Uksim.Clock.t;
  shim : Shim.t;
  proc : Process.t;
  vfs : Vfs.t;
  stack : Stack.t option;
  sched : Uksched.Sched.t option;
  hist : Metric.Histogram.t;  (* dispatch + handler cycles per call *)
  cycles_by_name : (string, int ref) Hashtbl.t;
}

let clock t = t.clock
let shim t = t.shim
let proc t = t.proc

(* vfscore errnos crossing the syscall boundary. *)
let errno_of_fs : Ukvfs.Fs.errno -> Errno.t = function
  | Ukvfs.Fs.Enoent -> Errno.Enoent
  | Ukvfs.Fs.Eexist -> Errno.Einval
  | Ukvfs.Fs.Enotdir -> Errno.Enoent
  | Ukvfs.Fs.Eisdir -> Errno.Einval
  | Ukvfs.Fs.Ebadf -> Errno.Ebadf
  | Ukvfs.Fs.Enospc -> Errno.Enomem
  | Ukvfs.Fs.Einval -> Errno.Einval
  | Ukvfs.Fs.Eio -> Errno.Einval
  | Ukvfs.Fs.Enosys -> Errno.Enosys

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e
let lift_fs r = Result.map_error errno_of_fs r

(* Little-endian stores into a local struct buffer. *)
let put64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let put32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

(* sockaddr_in: sa_family (2, LE) | port (2, network order) | addr (4,
   network order) | zero padding to 16 bytes. *)
let sockaddr_bytes (ip, port) =
  let b = Bytes.make 16 '\000' in
  Bytes.set b 0 '\002';
  Bytes.set b 2 (Char.chr ((port lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (port land 0xff));
  let a = Uknetstack.Addr.Ipv4.to_int ip in
  for i = 0 to 3 do
    Bytes.set b (4 + i) (Char.chr ((a lsr (8 * (3 - i))) land 0xff))
  done;
  b

let parse_sockaddr t ~addr =
  let* b = Process.read_mem t.proc ~addr ~len:8 in
  let family = Char.code (Bytes.get b 0) lor (Char.code (Bytes.get b 1) lsl 8) in
  if family <> 2 then Error Errno.Einval
  else begin
    let port = (Char.code (Bytes.get b 2) lsl 8) lor Char.code (Bytes.get b 3) in
    let ip = ref 0 in
    for i = 0 to 3 do
      ip := (!ip lsl 8) lor Char.code (Bytes.get b (4 + i))
    done;
    Ok (Uknetstack.Addr.Ipv4.of_int !ip, port)
  end

let write_sockaddr t ~addr peer =
  if addr = 0 then Ok () else Process.write_mem t.proc ~addr (sockaddr_bytes peer)

let stack t = match t.stack with Some s -> Ok s | None -> Error Errno.Enotsup

(* struct stat: st_mode (u32) at offset 24, st_size (u64) at offset 48,
   144 bytes total — the x86-64 layout libc reads back. *)
let stat_bytes ~mode ~size =
  let b = Bytes.make 144 '\000' in
  put32 b 24 mode;
  put64 b 48 size;
  b

let s_ifreg = 0o100000
let s_ifdir = 0o040000
let s_ifsock = 0o140000

(* --- handlers ----------------------------------------------------------- *)

let arg args i = if i < Array.length args then args.(i) else 0

let h_openat t args =
  let dirfd = arg args 0 and path_ptr = arg args 1 and flags = arg args 2 in
  let* path = Process.read_str t.proc ~addr:path_ptr in
  if dirfd <> Process.at_fdcwd && not (String.length path > 0 && path.[0] = '/') then
    Error Errno.Enotsup
  else
    let path = Process.resolve t.proc path in
    let create = flags land 0o100 <> 0 (* O_CREAT *) in
    let* vfd = lift_fs (Vfs.open_file t.vfs path ~create ()) in
    Ok (Process.alloc_fd t.proc (Process.File { vfd; path }))

let h_open t args = h_openat t [| Process.at_fdcwd; arg args 0; arg args 1 |]

let h_read t args =
  let fd = arg args 0 and buf = arg args 1 and len = arg args 2 in
  if len < 0 then Error Errno.Einval
  else
    match Process.lookup t.proc fd with
    | Some (Process.File f) ->
        let* data = lift_fs (Vfs.read t.vfs f.vfd ~len) in
        let* () = Process.write_mem t.proc ~addr:buf data in
        Ok (Bytes.length data)
    | Some (Process.Flow fl) -> (
        let* s = stack t in
        if len = 0 then Ok 0
        else
          match Stack.Tcp_socket.recv s fl ~max:len with
          | None -> Ok 0 (* EOF *)
          | Some b when Bytes.length b = 0 -> Error Errno.Eagain
          | Some b ->
              let* () = Process.write_mem t.proc ~addr:buf b in
              Ok (Bytes.length b))
    | Some (Process.Udp u) -> (
        match Stack.Udp_socket.recvfrom u with
        | None -> Error Errno.Eagain
        | Some (_, _, data) ->
            let data = if Bytes.length data > len then Bytes.sub data 0 len else data in
            let* () = Process.write_mem t.proc ~addr:buf data in
            Ok (Bytes.length data))
    | Some _ -> Error Errno.Einval
    | None -> Error Errno.Ebadf

let h_write t args =
  let fd = arg args 0 and buf = arg args 1 and len = arg args 2 in
  if len < 0 then Error Errno.Einval
  else
    let* data = Process.read_mem t.proc ~addr:buf ~len in
    match Process.lookup t.proc fd with
    | Some (Process.File f) -> lift_fs (Vfs.write t.vfs f.vfd data)
    | Some (Process.Flow fl) ->
        let* s = stack t in
        let n = Stack.Tcp_socket.send s fl data in
        if n = 0 && len > 0 then Error Errno.Eagain else Ok n
    | Some _ -> Error Errno.Einval
    | None -> Error Errno.Ebadf

let h_close t args =
  let fd = arg args 0 in
  match Process.close_fd t.proc fd with
  | None -> Error Errno.Ebadf
  | Some obj ->
      (match obj with
      | Process.File f -> ignore (Vfs.close t.vfs f.vfd)
      | Process.Udp u -> Stack.Udp_socket.close u
      | Process.Flow fl -> ( match t.stack with Some s -> Stack.Tcp_socket.close s fl | None -> ())
      | Process.Listener _ | Process.Sock _ -> ());
      Ok 0

let h_lseek t args =
  let fd = arg args 0 and off = arg args 1 and whence = arg args 2 in
  match Process.lookup t.proc fd with
  | Some (Process.File f) -> (
      match whence with
      | 0 (* SEEK_SET *) -> lift_fs (Vfs.lseek t.vfs f.vfd off)
      | 2 (* SEEK_END *) ->
          let* st = lift_fs (Vfs.stat t.vfs f.path) in
          lift_fs (Vfs.lseek t.vfs f.vfd (st.Ukvfs.Fs.size + off))
      | _ -> Error Errno.Enotsup)
  | Some _ -> Error Errno.Einval
  | None -> Error Errno.Ebadf

let h_fstat t args =
  let fd = arg args 0 and st_ptr = arg args 1 in
  match Process.lookup t.proc fd with
  | None -> Error Errno.Ebadf
  | Some obj ->
      let* b =
        match obj with
        | Process.File f ->
            let* st = lift_fs (Vfs.stat t.vfs f.path) in
            let mode =
              match st.Ukvfs.Fs.ftype with
              | Ukvfs.Fs.Regular -> s_ifreg lor 0o644
              | Ukvfs.Fs.Directory -> s_ifdir lor 0o755
            in
            Ok (stat_bytes ~mode ~size:st.Ukvfs.Fs.size)
        | _ -> Ok (stat_bytes ~mode:(s_ifsock lor 0o777) ~size:0)
      in
      let* () = Process.write_mem t.proc ~addr:st_ptr b in
      Ok 0

let h_stat t args =
  let path_ptr = arg args 0 and st_ptr = arg args 1 in
  let* path = Process.read_str t.proc ~addr:path_ptr in
  let path = Process.resolve t.proc path in
  let* st = lift_fs (Vfs.stat t.vfs path) in
  let mode =
    match st.Ukvfs.Fs.ftype with
    | Ukvfs.Fs.Regular -> s_ifreg lor 0o644
    | Ukvfs.Fs.Directory -> s_ifdir lor 0o755
  in
  let* () = Process.write_mem t.proc ~addr:st_ptr (stat_bytes ~mode ~size:st.Ukvfs.Fs.size) in
  Ok 0

let h_socket t args =
  let domain = arg args 0 and typ = arg args 1 land 0xf in
  let* _ = stack t in
  if domain <> 2 (* AF_INET *) then Error Errno.Enotsup
  else
    match typ with
    | 1 -> Ok (Process.alloc_fd t.proc (Process.Sock (Process.Unbound `Stream)))
    | 2 -> Ok (Process.alloc_fd t.proc (Process.Sock (Process.Unbound `Dgram)))
    | _ -> Error Errno.Enotsup

let h_bind t args =
  let fd = arg args 0 and sa = arg args 1 in
  let* s = stack t in
  let* _, port = parse_sockaddr t ~addr:sa in
  match Process.lookup t.proc fd with
  | Some (Process.Sock (Process.Unbound `Dgram)) ->
      let u = Stack.Udp_socket.bind s ~port in
      Process.set_obj t.proc fd (Process.Udp u);
      Ok 0
  | Some (Process.Sock (Process.Unbound `Stream)) ->
      Process.set_obj t.proc fd (Process.Sock (Process.Bound_stream port));
      Ok 0
  | Some _ -> Error Errno.Einval
  | None -> Error Errno.Ebadf

let h_listen t args =
  let fd = arg args 0 and backlog = arg args 1 in
  let* s = stack t in
  match Process.lookup t.proc fd with
  | Some (Process.Sock (Process.Bound_stream port)) ->
      let l = Stack.Tcp_socket.listen s ~port ~backlog:(max 1 backlog) () in
      Process.set_obj t.proc fd (Process.Listener l);
      Ok 0
  | Some _ -> Error Errno.Einval
  | None -> Error Errno.Ebadf

let h_accept t args =
  let fd = arg args 0 and sa = arg args 1 in
  let* _ = stack t in
  match Process.lookup t.proc fd with
  | Some (Process.Listener l) -> (
      match Stack.Tcp_socket.accept l with
      | None -> Error Errno.Eagain
      | Some flow ->
          let* () = write_sockaddr t ~addr:sa (Uknetstack.Tcp.remote_addr flow) in
          Ok (Process.alloc_fd t.proc (Process.Flow flow)))
  | Some _ -> Error Errno.Einval
  | None -> Error Errno.Ebadf

let h_connect t args =
  let fd = arg args 0 and sa = arg args 1 in
  let* s = stack t in
  let* dst = parse_sockaddr t ~addr:sa in
  match Process.lookup t.proc fd with
  | Some (Process.Sock (Process.Unbound `Stream)) ->
      let flow = Stack.Tcp_socket.connect s ~dst () in
      Process.set_obj t.proc fd (Process.Flow flow);
      Ok 0
  | Some _ -> Error Errno.Einval
  | None -> Error Errno.Ebadf

let h_sendto t args =
  let fd = arg args 0 and buf = arg args 1 and len = arg args 2 and sa = arg args 4 in
  match Process.lookup t.proc fd with
  | Some (Process.Udp u) ->
      let* data = Process.read_mem t.proc ~addr:buf ~len in
      let* dst = parse_sockaddr t ~addr:sa in
      Stack.Udp_socket.sendto u ~dst data;
      Ok len
  | Some (Process.Flow _) -> h_write t [| fd; buf; len |]
  | Some _ -> Error Errno.Einval
  | None -> Error Errno.Ebadf

let h_recvfrom t args =
  let fd = arg args 0 and buf = arg args 1 and len = arg args 2 and sa = arg args 4 in
  match Process.lookup t.proc fd with
  | Some (Process.Udp u) -> (
      match Stack.Udp_socket.recvfrom u with
      | None -> Error Errno.Eagain
      | Some (ip, port, data) ->
          let data = if Bytes.length data > len then Bytes.sub data 0 len else data in
          let* () = Process.write_mem t.proc ~addr:buf data in
          let* () = write_sockaddr t ~addr:sa (ip, port) in
          Ok (Bytes.length data))
  | Some (Process.Flow _) -> h_read t [| fd; buf; len |]
  | Some _ -> Error Errno.Einval
  | None -> Error Errno.Ebadf

let h_mmap t args = Process.mmap t.proc ~len:(arg args 1)
let h_munmap t args = Process.munmap t.proc ~addr:(arg args 0) ~len:(arg args 1)
let h_brk t args = Ok (Process.brk t.proc (arg args 0))

let ns_now t = Uksim.Clock.ns t.clock

let h_clock_gettime t args =
  let tp = arg args 1 in
  let ns = ns_now t in
  let b = Bytes.make 16 '\000' in
  put64 b 0 (int_of_float (ns /. 1e9));
  put64 b 8 (int_of_float (Float.rem ns 1e9));
  let* () = Process.write_mem t.proc ~addr:tp b in
  Ok 0

let h_gettimeofday t args =
  let tv = arg args 0 in
  let ns = ns_now t in
  let b = Bytes.make 16 '\000' in
  put64 b 0 (int_of_float (ns /. 1e9));
  put64 b 8 (int_of_float (Float.rem ns 1e9 /. 1e3));
  let* () = Process.write_mem t.proc ~addr:tv b in
  Ok 0

let h_time t args =
  let ptr = arg args 0 in
  let sec = int_of_float (ns_now t /. 1e9) in
  let* () =
    if ptr = 0 then Ok ()
    else begin
      let b = Bytes.make 8 '\000' in
      put64 b 0 sec;
      Process.write_mem t.proc ~addr:ptr b
    end
  in
  Ok sec

let h_nanosleep t args =
  let req = arg args 0 in
  let* b = Process.read_mem t.proc ~addr:req ~len:16 in
  let get64 off =
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
    done;
    !v
  in
  let ns = (float_of_int (get64 0) *. 1e9) +. float_of_int (get64 8) in
  (match t.sched with
  | Some _ -> Uksched.Sched.sleep_ns ns
  | None -> Uksim.Clock.advance_ns t.clock ns);
  Ok 0

let h_getcwd t args =
  let buf = arg args 0 and size = arg args 1 in
  let s = Process.cwd t.proc ^ "\000" in
  if String.length s > size then Error Errno.Einval
  else
    let* () = Process.write_mem t.proc ~addr:buf (Bytes.of_string s) in
    Ok (String.length s)

let h_chdir t args =
  let* path = Process.read_str t.proc ~addr:(arg args 0) in
  let path = Process.resolve t.proc path in
  let* st = lift_fs (Vfs.stat t.vfs path) in
  match st.Ukvfs.Fs.ftype with
  | Ukvfs.Fs.Directory ->
      Process.set_cwd t.proc path;
      Ok 0
  | Ukvfs.Fs.Regular -> Error Errno.Enoent

let h_uname t args =
  (* struct utsname: six NUL-padded 65-byte fields. *)
  let b = Bytes.make (6 * 65) '\000' in
  let put off s = Bytes.blit_string s 0 b (off * 65) (String.length s) in
  put 0 "Linux";
  put 1 "ukcompat";
  put 2 "5.4.0-ukraft";
  put 3 "#1 ukcompat personality";
  put 4 "x86_64";
  let* () = Process.write_mem t.proc ~addr:(arg args 0) b in
  Ok 0

(* The status is dropped: nothing outlives the traced process to read it. *)
let h_exit_group _ _ = Ok 0

(* --- assembly ----------------------------------------------------------- *)

let no n = match Sysno.number n with Some v -> v | None -> invalid_arg ("Personality: unknown syscall " ^ n)

let register_handlers t =
  let reg name h = Shim.register t.shim ~sysno:(no name) (fun args -> h t args) in
  let stub name ret = Shim.register_stub t.shim ~sysno:(no name) ~ret in
  (* files -> ukvfs *)
  reg "openat" h_openat;
  reg "open" h_open;
  reg "read" h_read;
  reg "write" h_write;
  reg "close" h_close;
  reg "lseek" h_lseek;
  reg "fstat" h_fstat;
  reg "stat" h_stat;
  reg "getcwd" h_getcwd;
  reg "chdir" h_chdir;
  (* sockets -> uknetstack *)
  reg "socket" h_socket;
  reg "bind" h_bind;
  reg "listen" h_listen;
  reg "accept" h_accept;
  reg "connect" h_connect;
  reg "sendto" h_sendto;
  reg "recvfrom" h_recvfrom;
  (* memory -> ukmmu *)
  reg "mmap" h_mmap;
  reg "munmap" h_munmap;
  reg "brk" h_brk;
  (* time -> the virtual clock *)
  reg "clock_gettime" h_clock_gettime;
  reg "gettimeofday" h_gettimeofday;
  reg "time" h_time;
  reg "nanosleep" h_nanosleep;
  (* identity and the usual startup chatter, quickly stubbed (§4.1) *)
  reg "uname" h_uname;
  reg "exit_group" h_exit_group;
  reg "exit" h_exit_group;
  stub "getpid" Process.pid;
  stub "gettid" Process.pid;
  stub "getppid" 0;
  stub "getuid" 0;
  stub "getgid" 0;
  stub "geteuid" 0;
  stub "getegid" 0;
  stub "arch_prctl" 0;
  stub "set_tid_address" Process.pid;
  stub "rt_sigaction" 0;
  stub "rt_sigprocmask" 0;
  stub "ioctl" 0;
  stub "fcntl" 0;
  stub "madvise" 0

let create ~clock ~mode ~vfs ?stack ?sched ?ram_bytes () =
  let shim = Shim.create ~clock ~mode in
  let proc = Process.create ~clock ?ram_bytes () in
  let t =
    {
      clock;
      shim;
      proc;
      vfs;
      stack;
      sched;
      hist = Metric.Histogram.create ();
      cycles_by_name = Hashtbl.create 32;
    }
  in
  register_handlers t;
  Uktrace.Registry.register
    (Uktrace.Source.make ~subsystem:"ukcompat" ~name:"personality"
       ~reset:(fun () ->
         Metric.Histogram.reset t.hist;
         Hashtbl.reset t.cycles_by_name)
       (fun () ->
         let per =
           Hashtbl.fold
             (fun name c acc -> ("cycles." ^ name, Metric.Count !c) :: acc)
             t.cycles_by_name []
           |> List.sort compare
         in
         ("call_cycles", Metric.Histogram.value t.hist) :: per));
  t

let call_sysno t sysno args =
  let name = if sysno >= 0 && sysno <= Sysno.max_sysno then Sysno.name sysno else "bad" in
  let c0 = Uksim.Clock.cycles t.clock in
  let r =
    Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~cat:"ukcompat" name (fun () ->
        Shim.call t.shim ~sysno args)
  in
  let dc = Uksim.Clock.cycles t.clock - c0 in
  Metric.Histogram.observe t.hist dc;
  (match Hashtbl.find_opt t.cycles_by_name name with
  | Some c -> c := !c + dc
  | None -> Hashtbl.replace t.cycles_by_name name (ref dc));
  r

let call t name args = call_sysno t (no name) args
