module S = Uknetstack.Stack
module C = Uktrace.Metric.Counter

type content =
  | In_memory of (string * string) list
  | Via_vfs of Ukvfs.Vfs.t

type t = {
  clock : Uksim.Clock.t;
  alloc : Ukalloc.Alloc.t;
  page : string -> (int * string) option; (* a path's body length and 200 reply *)
  core : int; (* tracepoint lane; the owning core under SMP *)
  group : Uktrace.Registry.group;
  requests : C.t;
  errors_404 : C.t;
  errors_503 : C.t;
  bytes_sent : C.t;
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

let response ~status ~body =
  String.concat ""
    [ "HTTP/1.1 "; status; "\r\nServer: ukraft\r\nContent-Length: ";
      string_of_int (String.length body); "\r\nConnection: keep-alive\r\n\r\n"; body ]

let ok body = (String.length body, response ~status:"200 OK" ~body)

let read_vfs vfs path =
  match Ukvfs.Vfs.open_file vfs path () with
  | Error _ -> None
  | Ok fd ->
      let result =
        match Ukvfs.Vfs.stat vfs path with
        | Ok { Ukvfs.Fs.size; _ } -> (
            match Ukvfs.Vfs.pread vfs fd ~off:0 ~len:size with
            | Ok data -> Some (Bytes.to_string data)
            | Error _ -> None)
        | Error _ -> None
      in
      ignore (Ukvfs.Vfs.close vfs fd);
      result

(* [content]'s page lookup. An in-memory page's reply is rendered once,
   here, in page order, so the first of a path listed twice still wins;
   VFS content is read and rendered per request. *)
let lookup = function
  | In_memory pages ->
      let replies = List.map (fun (path, body) -> (path, ok body)) pages in
      fun path -> List.assoc_opt path replies
  | Via_vfs vfs -> fun path -> Option.map ok (read_vfs vfs path)

(* Specialized request handling: the request line is parsed in place in
   the driver's ring buffer (no per-request pool, no header
   re-materialization), so the per-request budget shrinks from
   [parse_cost + respond_cost] to a scan plus a template write. *)
let fast_parse_cost = 150
let fast_respond_cost = 110

(* Find "\r\n\r\n" in [buf] within [from, limit); the index after it.
   The scan reads the last byte of each window first: a '\n' there ends
   a match or shifts the window by 2 (the pattern's other '\n' is at
   offset 1), a '\r' (offset 0 or 2) shifts it by 1, and any other byte
   shifts it past that byte. *)
let find_reqend buf from limit =
  let rec go i =
    if i + 3 >= limit then None
    else
      match Bytes.get buf (i + 3) with
      | '\n' ->
          if Bytes.get buf (i + 2) = '\r' && Bytes.get buf (i + 1) = '\n' && Bytes.get buf i = '\r'
          then Some (i + 4)
          else go (i + 2)
      | '\r' -> go (i + 1)
      | _ -> go (i + 4)
  in
  go from

(* Parse "GET <path> <version>" in place; the path is the only substring
   materialized (it is the lookup key, not payload). *)
let parse_get buf rs limit =
  if
    limit - rs > 4
    && Bytes.get buf rs = 'G'
    && Bytes.get buf (rs + 1) = 'E'
    && Bytes.get buf (rs + 2) = 'T'
    && Bytes.get buf (rs + 3) = ' '
  then
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
            C.incr t.errors_503;
            response ~status:"503 Service Unavailable" ~body:"overloaded"
        | None, _ -> response ~status:"400 Bad Request" ~body:"bad request"
        | Some path, _ -> (
            match t.page path with
            | Some (body_len, reply) ->
                if not fast then charge t (Uksim.Cost.memcpy body_len);
                reply
            | None ->
                C.incr t.errors_404;
                response ~status:"404 Not Found" ~body:"not found")
      in
      charge t (if fast then fast_respond_cost else respond_cost);
      Option.iter (Ukalloc.Alloc.uk_free t.alloc) pool;
      Serve.write sink reply;
      C.incr t.requests;
      C.add t.bytes_sent (String.length reply))

type make =
  clock:Uksim.Clock.t -> sched:Uksched.Sched.t -> stack:S.t -> alloc:Ukalloc.Alloc.t ->
  ?port:int -> ?core:int -> content -> t

let serve ~transport ~clock ~sched ~stack ~alloc ?(port = 80) ?(core = 0) content =
  let group = Uktrace.Registry.group ~subsystem:"ukapps" "httpd" in
  let requests = Uktrace.Registry.counter group "requests" in
  let errors_404 = Uktrace.Registry.counter group "errors_404" in
  let errors_503 = Uktrace.Registry.counter group "errors_503" in
  let bytes_sent = Uktrace.Registry.counter group "bytes_sent" in
  let t =
    { clock; alloc; page = lookup content; core; group; requests; errors_404; errors_503;
      bytes_sent }
  in
  let fast = transport <> Serve.Socket in
  Serve.start transport ~name:"httpd" ~clock ~sched ~stack ~port ~frame
    ~handle:(handle t ~fast);
  t

let create = serve ~transport:Serve.Socket
let create_fast = serve ~transport:(Serve.Netbuf { rtc = true })

let source t = Uktrace.Registry.source t.group

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
