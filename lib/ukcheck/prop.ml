let require cond msg = if cond then Ok () else Error msg

let rec all = function
  | [] -> Ok ()
  | Ok () :: rest -> all rest
  | (Error _ as e) :: _ -> e

let run ?cores ?schedules fixture = Explore.run (Explore.config ?cores ?budget:schedules ()) fixture

let check ?cores ?schedules ?seeds ~name fixture =
  match Explore.run (Explore.config ?cores ?budget:schedules ?seeds ()) fixture with
  | Explore.Passed _ -> ()
  | Explore.Failed f ->
      failwith
        (Printf.sprintf
           "%s: %s (found after %d schedules, %d shrink runs)\n  replay certificate: %s" name
           f.Explore.message f.Explore.found_after f.Explore.shrink_runs
           (Schedule.to_string f.Explore.cert))
