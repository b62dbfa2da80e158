(* Benchmark & experiment-regeneration harness.

   Two parts, both run by `dune exec bench/main.exe`:

   1. Experiment regeneration — one driver per figure/table of the paper
      (F1..F5, T1; see DESIGN.md §3), printing the measured series whose
      shape the paper's artwork depicts, with pass/fail checks.

   2. Bechamel microbenchmarks — one Test.make per experiment workload
      plus the abl:* rows DESIGN.md §4 calls out (the production hom
      search, core folding and trigger discovery, treewidth heuristics,
      core-chase cadence).

   Environment: BENCH_SCALE (default 1) lengthens the prefixes;
   BENCH_SKIP_MICRO=1 skips part 2 (used by quick CI runs). *)

(* aliased before [open Bechamel], which has an [Analyze] of its own *)
module Router = Analyze

open Bechamel
open Bechamel.Toolkit
open Syntax

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

let budget steps = { Chase.Variants.max_steps = steps; max_atoms = 20_000 }

(* ------------------------------------------------------------------ *)
(* Microbenchmark workloads (prepared once, outside the timed thunks) *)

let staircase_prefix = Zoo.Staircase.universal_model_prefix ~cols:8
let staircase_instance = Homo.Instance.of_atomset staircase_prefix.Zoo.Staircase.atoms
let staircase_query = Zoo.Staircase.column staircase_prefix 3
let step4 = Zoo.Staircase.step_atomset staircase_prefix 4
let elevator_prefix = (Zoo.Elevator.universal_model_prefix ~cols:5).Zoo.Elevator.atoms

let grid4 =
  let v = Array.init 4 (fun i -> Array.init 4 (fun j ->
      Term.var_of_id ~hint:"g" (900_000 + (i * 4) + j))) in
  let atoms = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i < 3 then atoms := Atom.make "h" [ v.(i).(j); v.(i + 1).(j) ] :: !atoms;
      if j < 3 then atoms := Atom.make "v" [ v.(i).(j); v.(i).(j + 1) ] :: !atoms
    done
  done;
  Atomset.of_list !atoms

let tc_chain_kb =
  let atom p args = Atom.make p args in
  let facts =
    List.init 40 (fun i ->
        atom "e" [ Term.const (Printf.sprintf "n%d" i);
                   Term.const (Printf.sprintf "n%d" (i + 1)) ])
  in
  let x = Term.var_of_id ~hint:"X" 910_000 and y = Term.var_of_id ~hint:"Y" 910_001
  and z = Term.var_of_id ~hint:"Z" 910_002 in
  Kb.of_lists ~facts
    ~rules:[ Rule.make ~name:"trans"
               ~body:[ atom "e" [ x; y ]; atom "e" [ y; z ] ]
               ~head:[ atom "e" [ x; z ] ] () ]

let staircase_atoms_list = Atomset.to_list staircase_prefix.Zoo.Staircase.atoms

(* a connected random graph whose exact-treewidth branch-and-bound is the
   heavy, embarrassingly-branching part of the abl:par workload (the two
   chase prefixes contribute the fan-out-per-round pattern) *)
let par_tw_graph =
  let n = 22 in
  let state = ref 0x5eed1 in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let v = Array.init n (fun i -> Term.var_of_id ~hint:"tw" (920_000 + i)) in
  let atoms = ref [] in
  for i = 0 to n - 2 do
    atoms := Atom.make "e" [ v.(i); v.(i + 1) ] :: !atoms
  done;
  for _ = 1 to 2 * n do
    let i = rand n and j = rand n in
    if i <> j then atoms := Atom.make "e" [ v.(i); v.(j) ] :: !atoms
  done;
  Atomset.of_list !atoms

let par_workload () =
  ignore (Chase.Variants.core ~budget:(budget 60) (Zoo.Staircase.kb ()));
  ignore (Chase.Variants.core ~budget:(budget 35) (Zoo.Elevator.kb ()));
  ignore (Treewidth.exact par_tw_graph)

let staircase_derivation_20 =
  (Chase.Variants.core ~budget:(budget 20) (Zoo.Staircase.kb ())).Chase.Variants.derivation

(* scratch WAL directories for the wal:sync-* rows; each iteration gets
   a fresh one so segment length never accumulates across runs *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let wal_scratch_ctr = ref 0

let wal_journaled_run sync =
  incr wal_scratch_ctr;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "corechase-bench-wal-%d" !wal_scratch_ctr)
  in
  rm_rf dir;
  match Storage.Wal.open_dir ~sync ~quiet:true dir with
  | Error e -> failwith e
  | Ok w ->
      Fun.protect
        ~finally:(fun () ->
          Storage.Wal.close w;
          rm_rf dir)
        (fun () ->
          let journal =
            Storage.Wal.journal w ~engine:"restricted" ~budget:(budget 20) ()
          in
          ignore
            (Chase.Variants.restricted ~budget:(budget 20) ~journal
               (Zoo.Staircase.kb ())))

(* Engine routing (DESIGN.md §13): the analyzer's own cost and the
   routed run next to each fixed engine, on certified-terminating
   families — one per certificate source: acyclicity (wa-ladder),
   instance-rank fixpoint (linear-twist, where the skolem probe
   diverges), existential-free (datalog-clique).  The routing decision
   is precomputed at setup so the auto row times only the engine the
   router picked; the analysis cost has its own row (the probes routing
   forces, i.e. what --engine auto pays), and
   scripts/bench_compare.py --route-gate bounds auto against the best
   fixed engine. *)
let route_cases =
  List.filter
    (fun (name, _) ->
      List.mem name [ "wa-ladder-3"; "linear-twist-3"; "datalog-clique-3" ])
    (Zoo.Families.named ())

let route_tests =
  List.concat_map
    (fun (name, kb) ->
      let choice = Router.route kb in
      let b = budget 200 in
      [
        Test.make ~name:(Printf.sprintf "abl:route:analyze:%s" name)
          (Staged.stage (fun () -> ignore (Router.route kb)));
        Test.make ~name:(Printf.sprintf "abl:route:auto:%s" name)
          (Staged.stage (fun () -> ignore (Chase.run_engine ~budget:b choice kb)));
        Test.make ~name:(Printf.sprintf "abl:route:restricted:%s" name)
          (Staged.stage (fun () -> ignore (Chase.run ~budget:b Chase.Restricted kb)));
        Test.make ~name:(Printf.sprintf "abl:route:core:%s" name)
          (Staged.stage (fun () -> ignore (Chase.run ~budget:b Chase.Core kb)));
      ])
    route_cases

let micro_tests =
  [
    (* per-figure workloads *)
    Test.make ~name:"F2:core-chase-20-steps" (Staged.stage (fun () ->
        ignore (Chase.Variants.core ~budget:(budget 20) (Zoo.Staircase.kb ()))));
    Test.make ~name:"F2:hom C3 -> P^h_8" (Staged.stage (fun () ->
        ignore (Homo.Hom.find staircase_query staircase_instance)));
    Test.make ~name:"F2:core-of-step-S4" (Staged.stage (fun () ->
        ignore (Homo.Core.of_atomset step4)));
    Test.make ~name:"F4:exact-treewidth-elevator5" (Staged.stage (fun () ->
        ignore (Treewidth.exact elevator_prefix)));
    Test.make ~name:"F4:core-chase-elevator-25" (Staged.stage (fun () ->
        ignore (Chase.Variants.core ~budget:(budget 25) (Zoo.Elevator.kb ()))));
    Test.make ~name:"F5:robust-sequence-20" (Staged.stage (fun () ->
        ignore (Corechase.Robust.of_derivation staircase_derivation_20)));
    Test.make ~name:"F1:countermodel-sat" (Staged.stage (fun () ->
        ignore (Modelfinder.find_model_upto ~max_domain:3 (Zoo.Classic.bts_not_fes ()))));
    Test.make ~name:"tw:exact-grid-4x4" (Staged.stage (fun () ->
        ignore (Treewidth.exact grid4)));
    (* ablations (DESIGN.md §4); abl:hom-order:greedy times the one hom
       solver (flat atoms, indexed buckets, most-constrained-first) *)
    Test.make ~name:"abl:hom-order:greedy" (Staged.stage (fun () ->
        ignore (Homo.Hom.count staircase_query staircase_instance)));
    Test.make ~name:"abl:core:by-variable" (Staged.stage (fun () ->
        ignore (Homo.Core.of_atomset step4)));
    Test.make ~name:"abl:tw:min-fill" (Staged.stage (fun () ->
        ignore (Treewidth.upper_bound ~heuristic:Treewidth.Min_fill elevator_prefix)));
    Test.make ~name:"abl:tw:min-degree" (Staged.stage (fun () ->
        ignore (Treewidth.upper_bound ~heuristic:Treewidth.Min_degree elevator_prefix)));
    Test.make ~name:"abl:datalog:seminaive" (Staged.stage (fun () ->
        ignore (Chase.Datalog.saturate (Kb.rules tc_chain_kb)
                  (Kb.facts tc_chain_kb))));
    Test.make ~name:"abl:cadence:every-app" (Staged.stage (fun () ->
        ignore (Chase.Variants.core ~cadence:Chase.Variants.Every_application
                  ~budget:(budget 15) (Zoo.Staircase.kb ()))));
    Test.make ~name:"abl:cadence:every-round" (Staged.stage (fun () ->
        ignore (Chase.Variants.core ~cadence:Chase.Variants.Every_round
                  ~budget:(budget 15) (Zoo.Staircase.kb ()))));
    (* trigger discovery: semi-naive delta discovery on a restricted
       chase, which isolates discovery cost (no core retractions); the
       instance grows to ~200 atoms. *)
    Test.make ~name:"abl:triggers:delta" (Staged.stage (fun () ->
        ignore
          (Chase.Variants.restricted ~budget:(budget 60) (Zoo.Staircase.kb ()))));
    (* instance maintenance: of_atomset per step vs incremental add_atoms *)
    Test.make ~name:"abl:index:rebuild" (Staged.stage (fun () ->
        ignore
          (List.fold_left
             (fun aset a ->
               let aset = Atomset.add a aset in
               ignore (Homo.Instance.of_atomset aset);
               aset)
             Atomset.empty staircase_atoms_list)));
    Test.make ~name:"abl:index:incremental" (Staged.stage (fun () ->
        ignore
          (List.fold_left
             (fun idx a -> Homo.Instance.add_atoms idx [ a ])
             Homo.Instance.empty staircase_atoms_list)));
    (* incremental core maintenance (DESIGN.md §9): delta-scoped first
       fold over core-chase workloads *)
    Test.make ~name:"abl:core:scoped" (Staged.stage (fun () ->
        ignore (Chase.Variants.core ~budget:(budget 60) (Zoo.Staircase.kb ()));
        ignore (Chase.Variants.core ~budget:(budget 35) (Zoo.Elevator.kb ()))));
    (* durability overhead (DESIGN.md §16): the same restricted chase
       with every derivation step journaled into a fresh WAL directory,
       once per fsync policy.  sync-every pays one fsync per record;
       sync-none leaves flushing to the page cache.  The rows differ
       only in the policy, so their ratio is the per-record fsync cost
       the durability CI job tracks. *)
    Test.make ~name:"wal:sync-every" (Staged.stage (fun () ->
        wal_journaled_run Storage.Wal.Sync_every));
    Test.make ~name:"wal:sync-none" (Staged.stage (fun () ->
        wal_journaled_run Storage.Wal.Sync_none));
  ]
  @ route_tests
  @ [
    (* domain-pool fan-out (DESIGN.md §10): the same mixed workload —
       core-chase prefixes + exact treewidth B&B — under one job and
       four.  set_jobs is a no-op when the width is unchanged, so the
       pool persists across iterations of the same test; keep these two
       last so the widened pool never leaks into other rows. *)
    Test.make ~name:"abl:par:jobs1" (Staged.stage (fun () ->
        Corechase.Par.set_jobs 1;
        par_workload ()));
    Test.make ~name:"abl:par:jobs4" (Staged.stage (fun () ->
        Corechase.Par.set_jobs 4;
        par_workload ()));
  ]

(* BENCH_ONLY=prefix[,prefix...] restricts the timed families to rows
   whose name starts with one of the prefixes (the CI perf-regression job
   reruns only the abl:* families it compares; the scaling job passes
   "thr").  The grouped names are "corechase <name>", so prefixes match
   against the bare name. *)
let matches_only name =
  match Sys.getenv_opt "BENCH_ONLY" with
  | None | Some "" -> true
  | Some pats ->
      List.exists
        (fun p ->
          let p = String.trim p in
          String.length p > 0
          && String.length name >= String.length p
          && String.equal (String.sub name 0 (String.length p)) p)
        (String.split_on_char ',' pats)

let micro_tests = List.filter (fun t -> matches_only (Test.name t)) micro_tests

(* ------------------------------------------------------------------ *)
(* Per-workload counter snapshots (DESIGN.md §8).  Each workload runs
   once with the metrics registry enabled; its counter columns (triggers
   enumerated/applied, retractions, hom backtracks, ...) land next to the
   timing estimates in BENCH_RESULTS.json.  The runs are deterministic,
   so the columns double as a cheap cross-machine sanity check. *)

let counter_workloads =
  [
    ("staircase:core-20", fun () ->
        ignore (Chase.Variants.core ~budget:(budget 20) (Zoo.Staircase.kb ())));
    ("staircase:restricted-60", fun () ->
        ignore
          (Chase.Variants.restricted ~budget:(budget 60) (Zoo.Staircase.kb ())));
    ("elevator:core-25", fun () ->
        ignore (Chase.Variants.core ~budget:(budget 25) (Zoo.Elevator.kb ())));
    ("tc-chain:datalog", fun () ->
        ignore
          (Chase.Datalog.saturate (Kb.rules tc_chain_kb)
             (Kb.facts tc_chain_kb)));
    ("elevator:exact-tw", fun () -> ignore (Treewidth.exact elevator_prefix));
  ]

let collect_counters () =
  List.map
    (fun (name, f) ->
      Corechase.Obs.Metrics.reset ();
      Corechase.Obs.Metrics.enabled := true;
      Fun.protect
        ~finally:(fun () -> Corechase.Obs.Metrics.enabled := false)
        f;
      let counters =
        List.filter
          (fun (_, v) -> v > 0)
          (Corechase.Obs.Metrics.counters ())
      in
      (name, counters))
    counter_workloads

let run_micro () =
  if micro_tests = [] then []
  else
  let test = Test.make_grouped ~name:"corechase" ~fmt:"%s %s" micro_tests in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Format.printf "@.=== microbenchmarks (monotonic clock, ns/run) ===@.";
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] -> Format.printf "  %-44s %14.1f ns/run@." name est
      | _ -> Format.printf "  %-44s (no estimate)@." name)
    rows;
  List.filter_map
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] -> Some (name, est)
      | _ -> None)
    rows

(* Throughput curves (DESIGN.md §14): the batched server load measured
   directly — one wall-clock per width over the whole batch, median of
   three, not a bechamel OLS fit (the quantity under test is elapsed
   time of one N-task batch, not ns/iteration of a repeatable thunk).
   Rows land in BENCH_RESULTS.json as [thr:batch:jobsN] (ns for the
   batch) so scripts/bench_compare.py --scaling-gate can require
   jobs4 ≥ 1.5× jobs1 throughput on multi-core CI. *)
let run_throughput () =
  let widths =
    List.filter
      (fun j -> matches_only (Printf.sprintf "thr:batch:jobs%d" j))
      [ 1; 2; 4 ]
  in
  if widths = [] then ([], true)
  else begin
    let tasks = Throughput.mix ~scale ~count:Throughput.default_count () in
    let rows, identical =
      Throughput.curves ~reps:3 ~jobs_list:widths tasks
    in
    Format.printf "@.=== throughput (batch of %d tasks, median of 3) ===@."
      (List.length tasks);
    Throughput.pp_rows Format.std_formatter rows;
    Format.printf "  results identical across widths/reps: %s@."
      (if identical then "yes" else "NO (determinism violation)");
    let estimates =
      List.map
        (fun r ->
          ( Printf.sprintf "corechase thr:batch:jobs%d" r.Throughput.jobs,
            r.Throughput.wall_s *. 1e9 ))
        rows
    in
    (estimates, identical)
  end

(* machine-readable mirror of the tables, for CI artifacts / regression
   tracking.  Timing rows are nested under one "benchmarks" key
   ({ "benchmarks": { "<bench name>": <ns/run>, ... }, "counters": ... });
   the per-workload counter columns sit under one "counters" key.  When
   the microbenchmarks were skipped, the previous file's timing lines are
   carried over so a quick run never erases regression baselines.
   BENCH_OUT overrides the output path (the CI perf job writes a scratch
   file and diffs it against the committed baseline). *)
let out_path =
  match Sys.getenv_opt "BENCH_OUT" with
  | Some p when p <> "" -> p
  | _ -> "BENCH_RESULTS.json"

let salvaged_estimates () =
  match open_in "BENCH_RESULTS.json" with
  | exception Sys_error _ -> []
  | ic ->
      let lines = ref [] in
      let inside = ref false in
      (try
         while true do
           let l = String.trim (input_line ic) in
           if !inside then
             if String.equal l "}" || String.equal l "}," then inside := false
             else begin
               (* a `"name": <ns>,` row; the trailing comma is re-normalised
                  by the writer *)
               let l =
                 if l <> "" && l.[String.length l - 1] = ',' then
                   String.sub l 0 (String.length l - 1)
                 else l
               in
               lines := l :: !lines
             end
           else if String.equal l {|"benchmarks": {|} then inside := true
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !lines

let write_results ~estimates ~counters =
  let rows =
    match estimates with
    | [] -> salvaged_estimates ()
    | _ -> List.map (fun (name, est) -> Printf.sprintf "%S: %.1f" name est) estimates
  in
  let oc = open_out out_path in
  output_string oc "{\n  \"benchmarks\": {\n";
  let n_rows = List.length rows in
  List.iteri
    (fun i row ->
      Printf.fprintf oc "    %s%s\n" row (if i = n_rows - 1 then "" else ","))
    rows;
  output_string oc "  },\n";
  output_string oc "  \"counters\": {\n";
  let n_work = List.length counters in
  List.iteri
    (fun i (workload, cols) ->
      Printf.fprintf oc "    %S: {" workload;
      List.iteri
        (fun j (cname, v) ->
          Printf.fprintf oc "%s%S: %d"
            (if j = 0 then "" else ", ")
            cname v)
        cols;
      Printf.fprintf oc "}%s\n" (if i = n_work - 1 then "" else ","))
    counters;
  output_string oc "  }\n}\n";
  close_out oc;
  Format.printf "  (written to %s)@." out_path

let () =
  Format.printf "corechase bench harness (scale=%d)@." scale;
  (* the perf-regression job (BENCH_ONLY) only needs the timed families —
     skip the figure regeneration in that mode *)
  let ok =
    match Sys.getenv_opt "BENCH_ONLY" with
    | Some p when p <> "" ->
        Format.printf "(experiments skipped: BENCH_ONLY=%s)@." p;
        true
    | _ -> Experiments.run_all ~scale Format.std_formatter
  in
  Format.printf "@.experiment regeneration: %s@."
    (if ok then "ALL PASS" else "SOME FAILED");
  let counters = collect_counters () in
  Format.printf "@.=== per-workload counters ===@.";
  List.iter
    (fun (workload, cols) ->
      Format.printf "  %s:@." workload;
      List.iter (fun (n, v) -> Format.printf "    %-32s %d@." n v) cols)
    counters;
  let skip_timed =
    match Sys.getenv_opt "BENCH_SKIP_MICRO" with
    | Some "1" ->
        Format.printf "(microbenchmarks skipped)@.";
        true
    | _ -> false
  in
  let estimates = if skip_timed then [] else run_micro () in
  (* abl:par:jobs4 runs last and leaves the pool wide; the throughput
     curves size the pool themselves, so start them from the default *)
  Corechase.Par.set_jobs 1;
  let thr_estimates, thr_identical =
    if skip_timed then ([], true) else run_throughput ()
  in
  let estimates =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (estimates @ thr_estimates)
  in
  write_results ~estimates ~counters;
  if not thr_identical then
    Format.printf "@.throughput check: FAIL (results differ across widths)@.";
  if not (ok && thr_identical) then exit 1
