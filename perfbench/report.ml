(* Metric names, the layer table, and the closed-loop reports. *)

let end_to_end_units =
  [
    ("setup_s", "s"); ("jobs_per_s", "1/s"); ("job_p50_ms", "ms");
    ("job_p90_ms", "ms"); ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric, in BENCHMARK.json order.  A traced run of any
   workload prints all of them; a layer the workload does not reach
   reads 0.  Closed-loop times and counts are means per traced job;
   serve-rw reports per-request times and whole-run counts. *)
let per_layer_units =
  [
    ("chase.engine_ms", "ms"); ("chase.discover_ms", "ms");
    ("chase.apply_ms", "ms");
    ("chase.triggers_enumerated", "count"); ("chase.triggers_applied", "count");
    ("chase.applied_per_enumerated", "ratio"); ("chase.rounds", "count");
    ("hom.solve_calls", "count"); ("hom.backtracks", "count");
    ("hom.memo_hit_rate", "ratio"); ("hom.minor_words", "words");
    ("trigger.minor_words", "words"); ("homo.index_ms", "ms");
    ("core.scoped_searches", "count"); ("core.certified_rate", "ratio");
    ("core.full_fallbacks", "count"); ("chase.retractions", "count");
    ("corechase.robust_ms", "ms"); ("corechase.holds_ms", "ms");
    ("corechase.decide_chase_ms", "ms"); ("corechase.countermodel_ms", "ms");
    ("treewidth.ms", "ms"); ("syntax.parse_ms", "ms");
    ("syntax.parse_mb_per_s", "MB/s"); ("analyze.ms", "ms");
    ("analyze.share", "ratio"); ("analyze.probes", "count");
    ("analyze.certified", "count"); ("analyze.routed_datalog", "count");
    ("analyze.routed_restricted", "count"); ("analyze.routed_core", "count");
    ("server.load_ms", "ms"); ("server.chase_ms", "ms");
    ("server.entail_ms", "ms"); ("gen.late_p90_ms", "ms");
    ("serve.entails", "count"); ("par.batch.tasks", "count");
    ("wal.appends", "count"); ("wal.fsyncs", "count");
    ("wal.bytes_per_atom", "B"); ("wal.replayed_records", "count");
    ("storage.open_ms", "ms"); ("storage.records_ms", "ms");
    ("server.restore_ms", "ms"); ("entail_p50_ms", "ms");
    ("entail_p90_ms", "ms"); ("entail_idle_p50_ms", "ms");
    ("chase_p50_ms", "ms"); ("recover_s", "s"); ("wal_mb", "MB");
    ("obs.trace_overhead_pct", "%"); ("host.ref_ms", "ms");
    ("host.ref_spread_pct", "%"); ("unattributed_ms", "ms");
  ]

(* Attach units to the named values, in [units] order; a name without a
   value reads 0. *)
let with_units units values =
  List.map
    (fun (name, unit) ->
      (name, Option.value (List.assoc_opt name values) ~default:0., unit))
    units

let host_values () =
  let xs = !Common.ref_samples in
  [ ("host.ref_ms", Common.median xs); ("host.ref_spread_pct", Common.spread_pct xs) ]

(* The layer table: [rows] are (layer, ms per job) and must not overlap;
   what they leave of [total] is the unattributed row. *)
let print_layer_table ?(per = "traced job") ~workload ~total ~rows ~predicted
    ~dominant () =
  Printf.printf "layer table (%s, calibrated ms per %s)\n" workload per;
  let attributed = Common.sum (List.map snd rows) in
  let rows = rows @ [ ("unattributed", total -. attributed) ] in
  List.iter
    (fun (name, ms) ->
      Printf.printf "  %-28s %10.3f  %5.1f%%\n" name ms (100. *. ms /. total))
    rows;
  Printf.printf "  %-28s %10.3f  100.0%%\n" "total" total;
  let share =
    Common.sum (List.map (fun n -> List.assoc n rows) dominant) /. total
  in
  Printf.printf "  predicted: %s; measured %.1f%% in %s: %s\n" predicted
    (100. *. share) (String.concat " + " dominant)
    (if share >= 0.5 then "held" else "did not hold");
  total -. attributed

let counter_values ~before ~after ~per names =
  List.map
    (fun name ->
      (name, float_of_int (Layers.delta before after name) /. per))
    names

let derived_counter_values ~before ~after =
  let d = Layers.delta before after in
  [
    ( "chase.applied_per_enumerated",
      Layers.ratio (d "chase.triggers_applied") (d "chase.triggers_enumerated") );
    ( "hom.memo_hit_rate",
      Layers.ratio (d "hom.memo_hits") (d "hom.memo_hits" + d "hom.memo_misses") );
    ( "core.certified_rate",
      Layers.ratio (d "core.scoped_certified") (d "core.scoped_searches") );
  ]

let plain_counters =
  [
    "chase.triggers_enumerated"; "chase.triggers_applied"; "chase.rounds";
    "hom.solve_calls"; "hom.backtracks"; "hom.minor_words";
    "trigger.minor_words"; "core.scoped_searches"; "core.full_fallbacks";
    "chase.retractions"; "analyze.probes"; "analyze.certified";
  ]

(* End-to-end metrics of a closed-loop run. *)
let closed_end_to_end (r : Closed.result) =
  let n = float_of_int (List.length r.Closed.job_ms) in
  [
    ("setup_s", Common.median r.Closed.setup_s);
    ("jobs_per_s", n /. (Common.sum r.Closed.job_ms /. 1000.));
    ("job_p50_ms", Common.quantile 0.5 r.Closed.job_ms);
    ("job_p90_ms", Common.quantile 0.9 r.Closed.job_ms);
    ("peak_rss_mb", Common.vm_hwm_mb "self");
  ]
