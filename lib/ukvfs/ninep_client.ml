module Transport = struct
  type t = {
    clock : Uksim.Clock.t;
    server : Ninep_server.t;
    mutable count : int;
    mutable next_tag : int;
  }

  (* Guest-visible RPC cost composition for virtio-9p on KVM: virtqueue
     descriptor setup + kick (VM exit), QEMU 9p server dispatch, response
     copy + completion interrupt. ~8.5 us base per round trip. *)
  let rpc_base = 2 * Uksim.Cost.vm_exit
  let host_dispatch_ns = 6200.0
  let per_byte = 0.06 (* cycles/byte beyond the plain memcpy: virtio chain walk *)

  let virtio_9p ~clock ~server = { clock; server; count = 0; next_tag = 1 }

  let rpc t (tagged : Ninep.tagged) =
    t.count <- t.count + 1;
    let req = Ninep.encode tagged in
    Uksim.Clock.advance t.clock rpc_base;
    Uksim.Clock.advance_ns t.clock host_dispatch_ns;
    Uksim.Clock.advance t.clock (Uksim.Cost.memcpy (Bytes.length req));
    let resp = Ninep_server.handle t.server req in
    Uksim.Clock.advance t.clock (Uksim.Cost.memcpy (Bytes.length resp));
    Uksim.Clock.advance t.clock
      (int_of_float (float_of_int (Bytes.length req + Bytes.length resp) *. per_byte));
    Uksim.Clock.advance t.clock Uksim.Cost.interrupt_delivery;
    match Ninep.decode resp with
    | Ok { body; _ } -> Ok body
    | Error e -> Error e

  let rpcs_sent t = t.count
end

type state = {
  tr : Transport.t;
  mutable next_fid : int;
  handles : (int, int) Hashtbl.t; (* our handle -> open fid *)
  mutable next_handle : int;
}

let fresh_fid t =
  let f = t.next_fid in
  t.next_fid <- f + 1;
  f

let rpc t body =
  let tag = t.tr.Transport.next_tag in
  t.tr.Transport.next_tag <- (tag + 1) land 0xffff;
  Transport.rpc t.tr { tag; body }

let to_errno = function
  | "ENOENT" -> Fs.Enoent
  | "EEXIST" -> Fs.Eexist
  | "ENOTDIR" -> Fs.Enotdir
  | "EISDIR" -> Fs.Eisdir
  | "EBADF" -> Fs.Ebadf
  | "ENOSPC" -> Fs.Enospc
  | "EINVAL" -> Fs.Einval
  | "ENOSYS" -> Fs.Enosys
  | _ -> Fs.Eio

(* Walk the root fid to [path], yielding a fresh fid. *)
let walk_to t path =
  let fid = fresh_fid t in
  match rpc t (Ninep.Twalk { fid = 0; newfid = fid; wnames = Fs.split_path path }) with
  | Ok (Ninep.Rwalk _) -> Ok fid
  | Ok (Ninep.Rerror e) -> Error (to_errno e)
  | Ok _ -> Error Fs.Eio
  | Error _ -> Error Fs.Eio

let clunk t fid = ignore (rpc t (Ninep.Tclunk fid))

let create ~transport =
  let t = { tr = transport; next_fid = 1; handles = Hashtbl.create 16; next_handle = 1 } in
  match Transport.rpc transport { tag = 0; body = Ninep.Tversion { msize = 65536; version = "9P2000" } } with
  | Ok (Ninep.Rversion _) -> (
      match
        Transport.rpc transport
          { tag = 0; body = Ninep.Tattach { fid = 0; uname = "root"; aname = "/" } }
      with
      | Ok (Ninep.Rattach _) ->
          let open_file path ~create:do_create =
            let result =
              match walk_to t path with
              | Ok fid -> (
                  match rpc t (Ninep.Topen { fid; mode = 2 }) with
                  | Ok (Ninep.Ropen _) -> Ok fid
                  | Ok (Ninep.Rerror e) ->
                      clunk t fid;
                      Error (to_errno e)
                  | Ok _ | Error _ ->
                      clunk t fid;
                      Error Fs.Eio)
              | Error Fs.Enoent when do_create -> (
                  (* Walk to the parent, create the leaf there. *)
                  let parts = Fs.split_path path in
                  match List.rev parts with
                  | [] -> Error Fs.Einval
                  | name :: rev_parent -> (
                      let parent = "/" ^ String.concat "/" (List.rev rev_parent) in
                      match walk_to t parent with
                      | Error e -> Error e
                      | Ok fid -> (
                          match rpc t (Ninep.Tcreate { fid; name; perm = 0o644; mode = 2 }) with
                          | Ok (Ninep.Rcreate _) -> Ok fid
                          | Ok (Ninep.Rerror e) ->
                              clunk t fid;
                              Error (to_errno e)
                          | Ok _ | Error _ ->
                              clunk t fid;
                              Error Fs.Eio)))
              | Error e -> Error e
            in
            match result with
            | Ok fid ->
                let h = t.next_handle in
                t.next_handle <- h + 1;
                Hashtbl.replace t.handles h fid;
                Ok h
            | Error e -> Error e
          in
          let with_fid h f =
            match Hashtbl.find_opt t.handles h with
            | None -> Error Fs.Ebadf
            | Some fid -> f fid
          in
          (* Chunked read: one RPC per iounit. *)
          let read h ~off ~len =
            with_fid h (fun fid ->
                let out = Buffer.create (min len 65536) in
                let rec go off remaining =
                  if remaining <= 0 then Ok (Buffer.to_bytes out)
                  else begin
                    let count = min remaining Ninep_server.iounit in
                    match rpc t (Ninep.Tread { fid; offset = off; count }) with
                    | Ok (Ninep.Rread data) ->
                        Buffer.add_bytes out data;
                        if Bytes.length data < count then Ok (Buffer.to_bytes out)
                        else go (off + Bytes.length data) (remaining - Bytes.length data)
                    | Ok (Ninep.Rerror e) -> Error (to_errno e)
                    | Ok _ | Error _ -> Error Fs.Eio
                  end
                in
                go off len)
          in
          let write h ~off data =
            with_fid h (fun fid ->
                let total = Bytes.length data in
                let rec go off written =
                  if written >= total then Ok total
                  else begin
                    let n = min (total - written) Ninep_server.iounit in
                    let chunk = Bytes.sub data written n in
                    match rpc t (Ninep.Twrite { fid; offset = off; data = chunk }) with
                    | Ok (Ninep.Rwrite m) ->
                        if m = 0 then Error Fs.Enospc else go (off + m) (written + m)
                    | Ok (Ninep.Rerror e) -> Error (to_errno e)
                    | Ok _ | Error _ -> Error Fs.Eio
                  end
                in
                go off 0)
          in
          let close h =
            match Hashtbl.find_opt t.handles h with
            | Some fid ->
                Hashtbl.remove t.handles h;
                clunk t fid
            | None -> ()
          in
          let stat path =
            match walk_to t path with
            | Error e -> Error e
            | Ok fid -> (
                let r = rpc t (Ninep.Tstat fid) in
                clunk t fid;
                match r with
                | Ok (Ninep.Rstat { length; is_dir; _ }) ->
                    Ok { Fs.size = length; ftype = (if is_dir then Fs.Directory else Fs.Regular) }
                | Ok (Ninep.Rerror e) -> Error (to_errno e)
                | Ok _ | Error _ -> Error Fs.Eio)
          in
          let unlink path =
            match walk_to t path with
            | Error e -> Error e
            | Ok fid -> (
                match rpc t (Ninep.Tremove fid) with
                | Ok Ninep.Rremove -> Ok ()
                | Ok (Ninep.Rerror e) -> Error (to_errno e)
                | Ok _ | Error _ -> Error Fs.Eio)
          in
          let readdir path =
            match walk_to t path with
            | Error e -> Error e
            | Ok fid -> (
                let r = rpc t (Ninep.Tread { fid; offset = 0; count = Ninep_server.iounit }) in
                clunk t fid;
                match r with
                | Ok (Ninep.Rread data) ->
                    if Bytes.length data = 0 then Ok []
                    else Ok (String.split_on_char '\n' (Bytes.to_string data))
                | Ok (Ninep.Rerror e) -> Error (to_errno e)
                | Ok _ | Error _ -> Error Fs.Eio)
          in
          Ok
            {
              Fs.fsname = "9pfs";
              open_file;
              read;
              write;
              close;
              stat;
              mkdir = (fun _ -> Error Fs.Enosys);
              unlink;
              readdir;
              fsync = (fun _ -> Ok ());
            }
      | Ok _ -> Error "9p attach failed"
      | Error e -> Error e)
  | Ok _ -> Error "9p version negotiation failed"
  | Error e -> Error e
