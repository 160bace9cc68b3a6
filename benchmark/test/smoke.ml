(* Smoke test for ukbench: every workload at 1/100 size, traced, must
   print every metric BENCHMARK.json names and exit 0; and the negative
   control, an expected page with one byte changed, must exit 1.

     smoke.exe UKBENCH BENCHMARK.json *)

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, String.split_on_char '\n' out |> List.filter (( <> ) ""))

let () =
  let exe = Sys.argv.(1) and bench = Json.of_file Sys.argv.(2) in
  let names key =
    List.map (fun m -> Json.to_string (Json.member "name" m)) (Json.to_list (Json.member key bench))
  in
  let workloads = names "workloads" and metrics = names "end_to_end" @ names "per_layer" in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let status, lines = run exe [ "--smoke"; "--trace" ] in
  if status <> Unix.WEXITED 0 then fail "ukbench --smoke --trace did not exit 0";
  let printed = Hashtbl.create 256 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ w; m; _; _ ] -> Hashtbl.replace printed (w, m) ()
      | _ -> ())
    lines;
  List.iter
    (fun w ->
      List.iter (fun m -> if not (Hashtbl.mem printed (w, m)) then fail "%s does not print %s" w m) metrics)
    workloads;
  let status, lines = run exe [ "--smoke"; "--workload"; "http_fast"; "--corrupt-expected" ] in
  let last = match List.rev lines with l :: _ -> Json.parse l | [] -> Json.Null in
  if status <> Unix.WEXITED 1 then fail "a corrupted expected page did not make the run exit 1";
  if Json.member "correct" last <> Json.Bool false then
    fail "a corrupted expected page was reported correct";
  match !failures with
  | [] ->
      Printf.printf "ukbench smoke: %d workloads x %d metrics printed; negative control failed\n"
        (List.length workloads) (List.length metrics)
  | fs ->
      List.iter prerr_endline (List.rev fs);
      exit 1
