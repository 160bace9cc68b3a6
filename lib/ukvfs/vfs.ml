type mount = { prefix : string; fs : Fs.t }

type open_file = { ofs : Fs.t; handle : Fs.handle; mutable offset : int }

type t = {
  clock : Uksim.Clock.t;
  mutable mounts : mount list; (* sorted by decreasing prefix length *)
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  dentries : (string, Fs.t * string) Hashtbl.t; (* path -> (fs, relative) *)
  mutable hits : int;
  mutable misses : int;
}

(* vfscore costs: fd table indirection, mount lookup, per-component
   resolution (what SHFS specialization removes in Fig 22). *)
let fd_cost = 60
let component_cost = 150
let dentry_hit_cost = 70

let create ~clock =
  {
    clock;
    mounts = [];
    fds = Hashtbl.create 64;
    next_fd = 3;
    dentries = Hashtbl.create 256;
    hits = 0;
    misses = 0;
  }

let charge t c = Uksim.Clock.advance t.clock c

let normalize at = if at = "" then "/" else at

let mount t ~at fs =
  let at = normalize at in
  if List.exists (fun m -> m.prefix = at) t.mounts then Error Fs.Eexist
  else begin
    t.mounts <-
      List.sort
        (fun a b -> compare (String.length b.prefix) (String.length a.prefix))
        ({ prefix = at; fs } :: t.mounts);
    Hashtbl.reset t.dentries;
    Ok ()
  end

let prefix_matches ~prefix path =
  prefix = "/"
  || String.length path >= String.length prefix
     && String.sub path 0 (String.length prefix) = prefix
     && (String.length path = String.length prefix || path.[String.length prefix] = '/')

(* Resolve an absolute path to (fs, fs-relative path), through the dentry
   cache; a miss pays per-component resolution cost. *)
let resolve t path =
  match Hashtbl.find_opt t.dentries path with
  | Some entry ->
      t.hits <- t.hits + 1;
      charge t dentry_hit_cost;
      Ok entry
  | None -> (
      t.misses <- t.misses + 1;
      charge t (component_cost * max 1 (List.length (Fs.split_path path)));
      match List.find_opt (fun m -> prefix_matches ~prefix:m.prefix path) t.mounts with
      | None -> Error Fs.Enoent
      | Some m ->
          let rel =
            if m.prefix = "/" then path
            else String.sub path (String.length m.prefix) (String.length path - String.length m.prefix)
          in
          let rel = if rel = "" then "/" else rel in
          let entry = (m.fs, rel) in
          Hashtbl.replace t.dentries path entry;
          Ok entry)

type fd = int

let with_fd t fd f =
  charge t fd_cost;
  match Hashtbl.find_opt t.fds fd with
  | None -> Error Fs.Ebadf
  | Some of_ -> f of_

let open_file t path ?(create = false) () =
  charge t fd_cost;
  match resolve t path with
  | Error e -> Error e
  | Ok (fs, rel) -> (
      match fs.Fs.open_file rel ~create with
      | Error e -> Error e
      | Ok handle ->
          let fd = t.next_fd in
          t.next_fd <- fd + 1;
          Hashtbl.replace t.fds fd { ofs = fs; handle; offset = 0 };
          Ok fd)

let pread t fd ~off ~len = with_fd t fd (fun o -> o.ofs.Fs.read o.handle ~off ~len)

let read t fd ~len =
  with_fd t fd (fun o ->
      match o.ofs.Fs.read o.handle ~off:o.offset ~len with
      | Ok data ->
          o.offset <- o.offset + Bytes.length data;
          Ok data
      | Error e -> Error e)

let pwrite t fd ~off data = with_fd t fd (fun o -> o.ofs.Fs.write o.handle ~off data)

let write t fd data =
  with_fd t fd (fun o ->
      match o.ofs.Fs.write o.handle ~off:o.offset data with
      | Ok n ->
          o.offset <- o.offset + n;
          Ok n
      | Error e -> Error e)

let lseek t fd pos =
  with_fd t fd (fun o ->
      if pos < 0 then Error Fs.Einval
      else begin
        o.offset <- pos;
        Ok pos
      end)

let close t fd =
  charge t fd_cost;
  match Hashtbl.find_opt t.fds fd with
  | None -> Error Fs.Ebadf
  | Some o ->
      o.ofs.Fs.close o.handle;
      Hashtbl.remove t.fds fd;
      Ok ()

let fsync t fd = with_fd t fd (fun o -> o.ofs.Fs.fsync o.handle)

let on_path t path f =
  match resolve t path with
  | Error e -> Error e
  | Ok (fs, rel) -> f fs rel

let stat t path = on_path t path (fun fs rel -> fs.Fs.stat rel)

let mkdir t path =
  Hashtbl.remove t.dentries path;
  on_path t path (fun fs rel -> fs.Fs.mkdir rel)

let readdir t path = on_path t path (fun fs rel -> fs.Fs.readdir rel)
let open_fds t = Hashtbl.length t.fds
let dentry_hits t = t.hits
let dentry_misses t = t.misses
