type backend =
  | Vfs_backed of Ukvfs.Vfs.t * string
  | Shfs_backed of Ukvfs.Shfs.t

type t = { clock : Uksim.Clock.t; backend : backend }

let create ~clock backend = { clock; backend }

let file_name i = Printf.sprintf "f%d.html" i

let content size i =
  let base = Printf.sprintf "<html><body>object %d</body></html>" i in
  if String.length base >= size then Bytes.of_string (String.sub base 0 size)
  else Bytes.of_string (base ^ String.make (size - String.length base) '.')

let populate t ~n_files ?(size = 4096) () =
  match t.backend with
  | Shfs_backed shfs ->
      for i = 0 to n_files - 1 do
        Ukvfs.Shfs.add shfs ~name:(file_name i) (content size i)
      done;
      Ok ()
  | Vfs_backed (vfs, prefix) ->
      let rec go i =
        if i >= n_files then Ok ()
        else begin
          let path = Filename.concat prefix (file_name i) in
          match Ukvfs.Vfs.open_file vfs path ~create:true () with
          | Error e -> Error (Ukvfs.Fs.errno_to_string e)
          | Ok fd -> (
              match Ukvfs.Vfs.pwrite vfs fd ~off:0 (content size i) with
              | Error e ->
                  ignore (Ukvfs.Vfs.close vfs fd);
                  Error (Ukvfs.Fs.errno_to_string e)
              | Ok _ ->
                  ignore (Ukvfs.Vfs.close vfs fd);
                  go (i + 1))
        end
      in
      go 0

let fetch t name =
  match t.backend with
  | Shfs_backed shfs -> (
      match Ukvfs.Shfs.open_direct shfs name with
      | Error _ -> None
      | Ok h ->
          let size = Ukvfs.Shfs.size_direct shfs h in
          let r =
            match Ukvfs.Shfs.read_direct shfs h ~off:0 ~len:size with
            | Ok data -> Some data
            | Error _ -> None
          in
          Ukvfs.Shfs.close_direct shfs h;
          r)
  | Vfs_backed (vfs, prefix) -> (
      let path = Filename.concat prefix name in
      match Ukvfs.Vfs.open_file vfs path () with
      | Error _ -> None
      | Ok fd ->
          let r =
            match Ukvfs.Vfs.stat vfs path with
            | Ok { Ukvfs.Fs.size; _ } -> (
                match Ukvfs.Vfs.pread vfs fd ~off:0 ~len:size with
                | Ok data -> Some data
                | Error _ -> None)
            | Error _ -> None
          in
          ignore (Ukvfs.Vfs.close vfs fd);
          r)

type open_latency = { hit_ns : float; miss_ns : float }

(* One open(+close), not reading the body — the paper measures lookup +
   fd-open time. *)
let open_once t name =
  match t.backend with
  | Shfs_backed shfs -> (
      match Ukvfs.Shfs.open_direct shfs name with
      | Ok h -> Ukvfs.Shfs.close_direct shfs h
      | Error _ -> ())
  | Vfs_backed (vfs, prefix) -> (
      match Ukvfs.Vfs.open_file vfs (Filename.concat prefix name) () with
      | Ok fd -> ignore (Ukvfs.Vfs.close vfs fd)
      | Error _ -> ())

let iterations = 1000 (* opens per measured case *)

let measure_open t =
  let measure name =
    let span = Uksim.Clock.start t.clock in
    for i = 0 to iterations - 1 do
      ignore i;
      open_once t name
    done;
    Uksim.Clock.elapsed_ns t.clock span /. float_of_int iterations
  in
  let hit_ns = measure (file_name 0) in
  let miss_ns = measure "does-not-exist.html" in
  { hit_ns; miss_ns }

