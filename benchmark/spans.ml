(* Spans the traced run keeps in memory and writes out once, at exit, as
   Chrome trace_event JSON (load it in Perfetto or chrome://tracing). Each
   span carries an id and its parent's id, so the spans of one request
   group together. *)

type span = {
  cat : string;
  name : string;
  id : string;
  parent : string;
  tid : int;
  start_ns : float;
  end_ns : float;
}

type t = { mutable spans : span list }

let create () = { spans = [] }

let add t ~cat ~name ~id ~parent ~tid ~start_ns ~end_ns =
  t.spans <- { cat; name; id; parent; tid; start_ns; end_ns } :: t.spans

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"ph\": \"X\", \"cat\": %s, \"name\": %s, \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \
             \"dur\": %.3f, \"args\": {\"id\": %s, \"parent\": %s}}"
            (if i = 0 then "" else ",\n")
            (Json.quote s.cat) (Json.quote s.name) s.tid (s.start_ns /. 1e3)
            ((s.end_ns -. s.start_ns) /. 1e3)
            (Json.quote s.id) (Json.quote s.parent))
        (List.rev t.spans);
      output_string oc "\n]}\n")
