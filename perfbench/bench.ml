(* Entry point:
   bench.exe --workload W --seed N --seconds S --trace 0|1 [--cli PATH]

   Prints the host record and, in a traced run, the layer table, then
   as its last line one JSON object with the correctness tally and the
   metrics.  [--cli] names the corechase binary serve-rw runs as its
   daemon.  See README.md. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper-core|zoo-ingest|serve-rw --seed N \
     --seconds S --trace 0|1 [--cli PATH]";
  exit 2

let main args =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and cli = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--cli" :: v :: rest -> cli := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. ->
      let report tally ~e2e ~layers =
        let metrics =
          if trace then Report.with_units Report.per_layer_units (layers ())
          else Report.with_units Report.end_to_end_units (e2e ())
        in
        print_endline (Common.host_line ());
        print_endline (Common.result_line tally metrics)
      in
      let closed spec layers =
        let r = Closed.run spec ~seed ~seconds ~trace in
        report r.Closed.tally
          ~e2e:(fun () -> Report.closed_end_to_end r)
          ~layers:(fun () -> layers r)
      in
      (match !workload with
      | "paper-core" -> closed Paper_core.spec Paper_core.layer_values
      | "zoo-ingest" -> closed Zoo_ingest.spec Zoo_ingest.layer_values
      | "serve-rw" ->
          let r = Serve_rw.run ~cli:!cli ~seed ~seconds ~trace in
          report r.Serve_rw.tally
            ~e2e:(fun () -> Serve_rw.end_to_end r)
            ~layers:(fun () -> Serve_rw.layer_values r)
      | _ -> usage ())
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--recovery-split"; dir ] -> Serve_rw.recovery_split dir
  | args -> main args
