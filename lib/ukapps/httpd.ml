module S = Uknetstack.Stack

type content =
  | In_memory of (string * string) list
  | Via_vfs of Ukvfs.Vfs.t
  | Via_shfs of Ukvfs.Shfs.t

type stats = { requests : int; errors_404 : int; errors_503 : int; bytes_sent : int }

let zero_stats = { requests = 0; errors_404 = 0; errors_503 = 0; bytes_sent = 0 }

type t = {
  clock : Uksim.Clock.t;
  alloc : Ukalloc.Alloc.t;
  content : content;
  core : int; (* tracepoint lane; the owning core under SMP *)
  mutable st : stats;
}

(* nginx-ish request handling work: header parse, route, log. *)
let parse_cost = 540
let respond_cost = 380

let default_page =
  let body =
    "<!DOCTYPE html><html><head><title>Unikraft</title></head><body>"
    ^ "<h1>It works!</h1><p>"
    ^ String.concat ""
        (List.init 16 (fun i -> Printf.sprintf "line %02d of the static test page......." i))
    ^ "</p></body></html>"
  in
  (* Pad to exactly 612 bytes, the paper's page size. *)
  if String.length body >= 612 then String.sub body 0 612
  else body ^ String.make (612 - String.length body) ' '

let charge t c = Uksim.Clock.advance t.clock c

let lookup t path =
  match t.content with
  | In_memory pages -> (
      match List.assoc_opt path pages with
      | Some body -> Some body
      | None -> None)
  | Via_vfs vfs -> (
      match Ukvfs.Vfs.open_file vfs path () with
      | Error _ -> None
      | Ok fd -> (
          let result =
            match Ukvfs.Vfs.stat vfs path with
            | Ok { Ukvfs.Fs.size; _ } -> (
                match Ukvfs.Vfs.pread vfs fd ~off:0 ~len:size with
                | Ok data -> Some (Bytes.to_string data)
                | Error _ -> None)
            | Error _ -> None
          in
          ignore (Ukvfs.Vfs.close vfs fd);
          result))
  | Via_shfs shfs -> (
      let name = match Ukvfs.Fs.split_path path with [ n ] -> n | _ -> path in
      match Ukvfs.Shfs.open_direct shfs name with
      | Error _ -> None
      | Ok h ->
          let size = Ukvfs.Shfs.size_direct shfs h in
          let result =
            match Ukvfs.Shfs.read_direct shfs h ~off:0 ~len:size with
            | Ok data -> Some (Bytes.to_string data)
            | Error _ -> None
          in
          Ukvfs.Shfs.close_direct shfs h;
          result)

let response ~status ~body =
  Printf.sprintf "HTTP/1.1 %s\r\nServer: ukraft\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
    status (String.length body) body

(* Specialized request handling: the request line is parsed in place in
   the driver's ring buffer (no per-request pool, no header
   re-materialization), so the per-request budget shrinks from
   [parse_cost + respond_cost] to a scan plus a template write. *)
let fast_parse_cost = 150
let fast_respond_cost = 110

(* Find "\r\n\r\n" in [buf] within [from, limit); the index after it. *)
let find_reqend buf from limit =
  let rec go i =
    if i + 3 >= limit then None
    else if
      Bytes.get buf i = '\r'
      && Bytes.get buf (i + 1) = '\n'
      && Bytes.get buf (i + 2) = '\r'
      && Bytes.get buf (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go from

(* Parse "GET <path> <version>" in place; the path is the only substring
   materialized (it is the lookup key, not payload). *)
let parse_get buf rs limit =
  if limit - rs > 4 && Bytes.sub_string buf rs 4 = "GET " then
    match Bytes.index_from_opt buf (rs + 4) ' ' with
    | Some sp when sp < limit -> Some (Bytes.sub_string buf (rs + 4) (sp - rs - 4))
    | Some _ | None -> None
  else None

(* A request runs through the blank line ending its headers; what the
   handler needs of it is the path of its request line. *)
let frame buf pos limit =
  match find_reqend buf pos limit with
  | None -> Serve.Partial
  | Some re -> Serve.Frame (parse_get buf pos (Bytes.index_from buf pos '\r'), re)

let handle t ~fast sink path =
  Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~core:t.core ~cat:"ukapps"
    (if fast then "http_request_fast" else "http_request")
    (fun () ->
      charge t (if fast then fast_parse_cost else parse_cost);
      (* The generic build takes a per-request buffer from the app
         allocator, as nginx's request pool. *)
      let pool = if fast then None else Ukalloc.Alloc.uk_malloc t.alloc 1024 in
      let reply =
        match (path, pool) with
        | _, None when not fast ->
            (* Allocator under pressure: shed the request instead of
               serving it half-built (degraded mode). *)
            t.st <- { t.st with errors_503 = t.st.errors_503 + 1 };
            response ~status:"503 Service Unavailable" ~body:"overloaded"
        | None, _ -> response ~status:"400 Bad Request" ~body:"bad request"
        | Some path, _ -> (
            match lookup t path with
            | Some body ->
                if not fast then charge t (Uksim.Cost.memcpy (String.length body));
                response ~status:"200 OK" ~body
            | None ->
                t.st <- { t.st with errors_404 = t.st.errors_404 + 1 };
                response ~status:"404 Not Found" ~body:"not found")
      in
      charge t (if fast then fast_respond_cost else respond_cost);
      Option.iter (Ukalloc.Alloc.uk_free t.alloc) pool;
      Serve.write sink reply;
      t.st <-
        { t.st with
          requests = t.st.requests + 1;
          bytes_sent = t.st.bytes_sent + String.length reply })

type make =
  clock:Uksim.Clock.t -> sched:Uksched.Sched.t -> stack:S.t -> alloc:Ukalloc.Alloc.t ->
  ?port:int -> ?core:int -> content -> t

let serve ~transport ~clock ~sched ~stack ~alloc ?(port = 80) ?(core = 0) content =
  let t = { clock; alloc; content; core; st = zero_stats } in
  Uktrace.Registry.register
    (Uktrace.Source.make ~subsystem:"ukapps" ~name:"httpd"
       ~reset:(fun () -> t.st <- zero_stats)
       (fun () ->
         [
           ("requests", Uktrace.Metric.Count t.st.requests);
           ("errors_404", Uktrace.Metric.Count t.st.errors_404);
           ("errors_503", Uktrace.Metric.Count t.st.errors_503);
           ("bytes_sent", Uktrace.Metric.Count t.st.bytes_sent);
         ]));
  let fast = transport <> Serve.Socket in
  Serve.start transport ~name:"httpd" ~clock ~sched ~stack ~port ~frame
    ~handle:(handle t ~fast);
  t

let create = serve ~transport:Serve.Socket
let create_fast = serve ~transport:(Serve.Netbuf { rtc = true })

let stats t = t.st

let sum_stats ts =
  List.fold_left
    (fun acc t ->
      {
        requests = acc.requests + t.st.requests;
        errors_404 = acc.errors_404 + t.st.errors_404;
        errors_503 = acc.errors_503 + t.st.errors_503;
        bytes_sent = acc.bytes_sent + t.st.bytes_sent;
      })
    zero_stats ts

(* --- load client ------------------------------------------------------------ *)

(* [Some v] for a Content-Length header line, where [v] is [None] unless
   the value is a decimal length that fits an int. *)
let content_length line =
  match String.index_opt line ':' with
  | Some i when String.lowercase_ascii (String.trim (String.sub line 0 i)) = "content-length" ->
      let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      Some
        (if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then int_of_string_opt v
         else None)
  | Some _ | None -> None

(* The status line, then the headers (only Content-Length matters), then
   the body. The state carries across feeds, so any segmentation yields
   the same replies. *)
let scanner () : Load.scanner =
  let line = Buffer.create 64 in
  let in_head = ref false (* the status line is read *) and ok = ref false in
  let length = ref 0 and skip = ref 0 and broken = ref false in
  let complete on_reply =
    in_head := false;
    length := 0;
    on_reply (if !ok then `Ok else `Err)
  in
  fun buf off len ~on_reply ->
    let i = ref off and limit = off + len in
    while (not !broken) && !i < limit do
      if !skip > 0 then begin
        let n = min !skip (limit - !i) in
        skip := !skip - n;
        i := !i + n;
        if !skip = 0 then complete on_reply
      end
      else begin
        let c = Bytes.get buf !i in
        incr i;
        Buffer.add_char line c;
        let l = Buffer.length line in
        if c = '\n' && l >= 2 && Buffer.nth line (l - 2) = '\r' then begin
          let s = Buffer.sub line 0 (l - 2) in
          Buffer.clear line;
          if not !in_head then begin
            in_head := true;
            ok := String.length s >= 12 && String.sub s 9 3 = "200"
          end
          else if s = "" then (if !length = 0 then complete on_reply else skip := !length)
          else
            match content_length s with
            | Some (Some n) -> length := n
            | Some None ->
                broken := true;
                on_reply `Err
            | None -> ()
        end
      end
    done;
    not !broken

let client ?(path = "/index.html") () =
  let request = Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path in
  {
    Load.name = "http";
    requests = (fun ~conn:_ ~first:_ _ -> request);
    (* wrk formats each request and validates each response; the netbuf
       client replays the request bytes and scans replies in place. *)
    socket = { request = 150; reply = 0 };
    netbuf = { request = 60; reply = 0 };
    scanner;
  }
