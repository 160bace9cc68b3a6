module Pt = Ukmmu.Pagetable
module Errno = Uksyscall.Fs_errno

let page_size = Pt.page_size
let at_fdcwd = -100

type file = { vfd : Ukvfs.Vfs.fd; path : string }

type sock = Unbound of [ `Stream | `Dgram ] | Bound_stream of int

type obj =
  | File of file
  | Sock of sock
  | Udp of Uknetstack.Stack.Udp_socket.t
  | Listener of Uknetstack.Stack.Tcp_socket.listener
  | Flow of Uknetstack.Stack.Tcp_socket.flow

type t = {
  pt : Pt.t;
  ram : Bytes.t;
  mutable free_pages : int list;  (* physical page numbers *)
  fds : (int, obj) Hashtbl.t;
  mutable next_fd : int;
  mutable cwd : string;
  heap_base : int;
  mutable break : int;
  mutable mmap_next : int;
}

let heap_base_default = 0x1000_0000
let mmap_base_default = 0x2000_0000

let create ~clock ?(ram_bytes = 1 lsl 20) () =
  let pages = (ram_bytes + page_size - 1) / page_size in
  let ram_bytes = pages * page_size in
  let pt = Pt.create ~clock ~mode:Pt.Dynamic ~ram_bytes in
  {
    pt;
    ram = Bytes.make ram_bytes '\000';
    free_pages = List.init pages (fun i -> i);
    fds = Hashtbl.create 16;
    next_fd = 3;
    cwd = "/";
    heap_base = heap_base_default;
    break = heap_base_default;
    mmap_next = mmap_base_default;
  }

let pid = 1 (* a unikernel runs one process *)
let cwd t = t.cwd
let set_cwd t d = t.cwd <- d

let resolve t path =
  if path = "" then t.cwd
  else if path.[0] = '/' then path
  else if t.cwd = "/" then "/" ^ path
  else t.cwd ^ "/" ^ path

(* --- user memory -------------------------------------------------------- *)

let map_fresh_page t ~vaddr =
  match t.free_pages with
  | [] -> Error Errno.Enomem
  | p :: rest ->
      t.free_pages <- rest;
      let paddr = p * page_size in
      Bytes.fill t.ram paddr page_size '\000';
      Pt.map_page t.pt ~vaddr ~paddr;
      Ok ()

let unmap_user_page t ~vaddr =
  match Pt.translate t.pt vaddr with
  | None -> ()
  | Some paddr ->
      Pt.unmap_page t.pt ~vaddr;
      t.free_pages <- (paddr / page_size) :: t.free_pages

(* Walk [addr, addr+len) one page segment at a time, translating each
   segment through the page table (charging TLB hit/walk costs), and hand
   [f] the physical range. *)
let iter_segments t ~addr ~len f =
  let rec go vaddr remaining off =
    if remaining = 0 then Ok ()
    else
      let in_page = page_size - (vaddr land (page_size - 1)) in
      let seg = min remaining in_page in
      match Pt.translate t.pt vaddr with
      | None -> Error Errno.Efault
      | Some paddr ->
          f ~paddr ~off ~len:seg;
          go (vaddr + seg) (remaining - seg) (off + seg)
  in
  if len < 0 || addr < 0 then Error Errno.Efault else go addr len 0

let read_mem t ~addr ~len =
  let out = Bytes.create len in
  match iter_segments t ~addr ~len (fun ~paddr ~off ~len -> Bytes.blit t.ram paddr out off len) with
  | Ok () -> Ok out
  | Error e -> Error e

let write_mem t ~addr data =
  let len = Bytes.length data in
  match iter_segments t ~addr ~len (fun ~paddr ~off ~len -> Bytes.blit data off t.ram paddr len) with
  | Ok () -> Ok ()
  | Error e -> Error e

let max_str = 4096

let read_str t ~addr =
  let rec go vaddr acc acc_len =
    if acc_len > max_str then Error Errno.Efault
    else
      let in_page = page_size - (vaddr land (page_size - 1)) in
      match Pt.translate t.pt vaddr with
      | None -> Error Errno.Efault
      | Some paddr -> (
          match Bytes.index_from_opt t.ram paddr '\000' with
          | Some i when i < paddr + in_page ->
              let chunk = Bytes.sub_string t.ram paddr (i - paddr) in
              Ok (String.concat "" (List.rev (chunk :: acc)))
          | _ ->
              go (vaddr + in_page)
                (Bytes.sub_string t.ram paddr in_page :: acc)
                (acc_len + in_page))
  in
  go addr [] 0

(* --- address-space operations ------------------------------------------- *)

let pages_of len = (len + page_size - 1) / page_size

let mmap t ~len =
  if len <= 0 then Error Errno.Einval
  else begin
    let n = pages_of len in
    let vaddr = t.mmap_next in
    let rec map i =
      if i = n then Ok vaddr
      else
        match map_fresh_page t ~vaddr:(vaddr + (i * page_size)) with
        | Ok () -> map (i + 1)
        | Error e ->
            (* undo partial mapping *)
            for j = 0 to i - 1 do
              unmap_user_page t ~vaddr:(vaddr + (j * page_size))
            done;
            Error e
    in
    match map 0 with
    | Ok v ->
        t.mmap_next <- t.mmap_next + (n * page_size);
        Ok v
    | Error e -> Error e
  end

let munmap t ~addr ~len =
  if addr land (page_size - 1) <> 0 || len <= 0 then Error Errno.Einval
  else begin
    for i = 0 to pages_of len - 1 do
      unmap_user_page t ~vaddr:(addr + (i * page_size))
    done;
    Ok 0
  end

let brk t addr =
  if addr <= t.break then t.break (* query (0) or shrink attempt: break unchanged *)
  else begin
    let cur_pages = pages_of (t.break - t.heap_base) in
    let want_pages = pages_of (addr - t.heap_base) in
    let rec grow i =
      if i >= want_pages then true
      else
        match map_fresh_page t ~vaddr:(t.heap_base + (i * page_size)) with
        | Ok () -> grow (i + 1)
        | Error _ ->
            (* undo the partial growth: failed brk must not eat pages *)
            for j = cur_pages to i - 1 do
              unmap_user_page t ~vaddr:(t.heap_base + (j * page_size))
            done;
            false
    in
    if grow cur_pages then begin
      t.break <- addr;
      addr
    end
    else t.break (* ENOMEM: Linux leaves the break unchanged *)
  end

let heap_base t = t.heap_base

let mem_digest t =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%d" (Digest.bytes t.ram) t.break t.mmap_next
          (List.length t.free_pages)))

(* --- file descriptor table ---------------------------------------------- *)

let alloc_fd t obj =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.replace t.fds fd obj;
  fd

let lookup t fd = Hashtbl.find_opt t.fds fd
let set_obj t fd obj = Hashtbl.replace t.fds fd obj

let close_fd t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> None
  | Some obj ->
      Hashtbl.remove t.fds fd;
      Some obj

