(* corechase — command-line front end.

   Subcommands:
     chase      run a chase variant on a DLGP file (--batch: a manifest
                of files, one independent chase per line via Par.Batch)
     resume     continue a chase from its write-ahead log (--wal DIR)
     entail     decide the file's queries (Theorem-1 skeleton)
     analyze    termination analysis + engine routing (DESIGN.md §13)
     classify   syntactic class analysis + behavioural probes
     treewidth  treewidth of the facts of a DLGP file
     repro      regenerate the paper's figures/tables (F1..F5, T1)
     zoo        print a built-in KB in DLGP syntax
     bench      batched-throughput speedup curves (DESIGN.md §14)

   Exit codes (see README "Exit codes"):
     0  success / everything entailed / fixpoint reached
     1  a query was not entailed
     2  a budget or the deadline stopped the run before a verdict
     3  usage or input error (bad file, bad or corrupt WAL, bad combination);
        also analyze/classify --strict with an `unknown' verdict
     124/125  command-line parse errors (cmdliner's own codes) *)

open Cmdliner
module CTerm = Cmdliner.Term
open Syntax

let exit_ok = 0

(* exit code 1 ("a query was not entailed") is produced through
   [Server.Queryeval.exit_code], the severity mapping shared with the
   serving path *)
let exit_stopped = 2

let exit_input = 3

(* structured aborts: print to stderr, exit with a documented code *)
let die code fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "corechase: %s@." msg;
      exit code)
    fmt

let load_document path =
  match Dlgp.parse_file path with
  | Ok d -> d
  | Error e -> die exit_input "%s: %a" path Dlgp.pp_error e

let load_kb path = Dlgp.kb_of_document (load_document path)

(* common args *)
let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DLGP input file.")

let steps_arg =
  Arg.(value & opt int 500 & info [ "steps" ] ~doc:"Rule-application budget.")

let atoms_arg =
  Arg.(value & opt int 20000 & info [ "max-atoms" ] ~doc:"Instance size budget.")

let budget_of steps atoms = { Chase.Variants.max_steps = steps; max_atoms = atoms }

(* resilience (DESIGN.md §11) *)
let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the run.  When it passes, the engines \
           stop cooperatively at the next poll point and report the \
           $(b,deadline exceeded) outcome (exit code 2) with the last \
           consistent instance.")

let token_of_deadline deadline =
  Option.map (fun s -> Resilience.Token.create ~deadline_s:s ()) deadline

(* observability (DESIGN.md §8) *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL trace of chase events to $(docv).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect metrics during the run and print the registry afterwards.")

(* parallelism (DESIGN.md §10) *)
let jobs_arg =
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ -> Error (`Msg "jobs must be >= 1")
      | None -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Fmt.int)
  in
  Arg.(
    value
    (* default: the pool CORECHASE_JOBS sized at startup *)
    & opt jobs_conv (Corechase.Par.jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Size of the domain pool the chase's hom searches and the \
           treewidth branch-and-bound fan out over (1 = sequential; \
           results are identical for every $(docv)).  Defaults to \
           $(b,CORECHASE_JOBS) or 1.")

let with_obs ~trace ~metrics f =
  if metrics then begin
    Corechase.Obs.Metrics.reset ();
    Corechase.Obs.Metrics.enabled := true
  end;
  Fun.protect
    ~finally:(fun () ->
      if metrics then begin
        Corechase.Obs.Metrics.enabled := false;
        Fmt.pr "@.metrics:@.%a" Corechase.Obs.Metrics.pp_table ();
        if Corechase.Par.jobs () > 1 then
          Fmt.pr "@.metrics by domain:@.%a"
            Corechase.Obs.Metrics.pp_domain_table ()
      end)
    (fun () ->
      match trace with
      | None -> f ()
      | Some path -> Corechase.Obs.Trace.with_jsonl_file path f)

(* engine routing (DESIGN.md §13) *)
let engine_arg =
  let engine_conv =
    Arg.enum
      [
        ("auto", `Auto);
        ("datalog", `Datalog);
        ("restricted", `Restricted);
        ("core", `Core);
      ]
  in
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ]
        ~doc:
          "Engine selection: $(b,auto) runs the termination analyzer and \
           routes to the cheapest sound engine (semi-naive datalog for \
           existential-free rules, restricted chase when termination is \
           certified, core chase otherwise); $(b,datalog), \
           $(b,restricted) and $(b,core) force that engine.  Overrides \
           $(b,--variant).")

(* resolve --engine against the analyzer; prints the routing line so the
   decision is part of the command's visible, pinned output *)
let resolve_engine ~budget kb = function
  | `Datalog -> Chase.Engine_datalog
  | `Restricted -> Chase.Engine_restricted
  | `Core -> Chase.Engine_core
  | `Auto ->
      let report = Analyze.analyze ~budget kb in
      let choice, reason = Analyze.route_of_report kb report in
      Fmt.pr "engine:     %s (%s)@." (Chase.engine_name choice) reason;
      choice

(* chase *)
let variant_arg =
  let variant_conv =
    Arg.enum
      [
        ("oblivious", Chase.Oblivious); ("skolem", Chase.Skolem);
        ("restricted", Chase.Restricted); ("frugal", Chase.Frugal);
        ("core", Chase.Core);
      ]
  in
  Arg.(value & opt variant_conv Chase.Core & info [ "variant"; "v" ] ~doc:"Chase variant: oblivious, skolem, restricted or core.")

let outcome_line o =
  match o with
  | Resilience.Fixpoint -> "terminated (fixpoint reached)"
  | o -> Fmt.str "%a" Resilience.pp_outcome o

let print_report ~verbose (report : Chase.report) =
  Fmt.pr "variant:    %s@." (Chase.variant_name report.Chase.variant);
  Fmt.pr "outcome:    %s@." (outcome_line report.Chase.outcome);
  Fmt.pr "steps:      %d@." report.Chase.steps;
  Fmt.pr "final size: %d atoms@." (Atomset.cardinal report.Chase.final);
  if verbose then
    Atomset.iter
      (fun a -> Fmt.pr "%s.@." (Dlgp.atom_to_string a))
      report.Chase.final

let exit_of_outcome = function
  | Resilience.Fixpoint -> exit_ok
  | _ -> exit_stopped

(* --- --wal plumbing (DESIGN.md §16) -------------------------------- *)

let wal_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Write-ahead-log directory: journal every derivation step as a \
           CRC-checked binary record, so a killed run recovers exactly with \
           $(b,corechase resume --wal) $(i,DIR).")

let wal_sync_arg =
  let policy_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error
            (fun m -> `Msg m)
            (Storage.Wal.sync_policy_of_string s)),
        fun ppf p -> Fmt.string ppf (Storage.Wal.sync_policy_to_string p) )
  in
  Arg.(
    value
    & opt policy_conv Storage.Wal.Sync_every
    & info [ "wal-sync" ] ~docv:"POLICY"
        ~doc:
          "WAL fsync policy: $(b,every) (default; each record is durable \
           before the engine proceeds), $(b,none), or $(b,interval:N).")

let snapshot_every_arg =
  let cadence_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some _ -> Error (`Msg "snapshot-every must be >= 0")
      | None -> Error (`Msg "expected a non-negative integer")
    in
    Arg.conv (parse, Fmt.int)
  in
  Arg.(
    value & opt cadence_conv 0
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Write a binary WAL snapshot and rotate to a fresh segment every \
           $(i,N) completed rounds ($(b,serve): state-changing requests); 0 \
           disables snapshots.")

let open_wal ~sync ~snapshot_every dir =
  match Storage.Wal.open_dir ~sync ~snapshot_every dir with
  | Ok w -> w
  | Error m -> die exit_input "%s" m

(* --batch: FILE is a manifest of DLGP paths, one per line; every KB is
   chased independently through Par.Batch (DESIGN.md §14).  KBs are
   parsed {e inside} the task so each file mints its variable ids under
   the task's private freshness counter — the per-file report is then
   identical at every --jobs width, and the printed lines follow
   manifest order. *)
let run_batch ~file ~variant ~budget ~token ~trace ~metrics ~jobs =
  let manifest =
    let ic = try open_in file with Sys_error m -> die exit_input "%s" m in
    let lines = ref [] in
    (try
       while true do
         let l = String.trim (input_line ic) in
         if l <> "" && l.[0] <> '#' then lines := l :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !lines
  in
  if manifest = [] then die exit_input "%s: empty batch manifest" file;
  Corechase.Par.set_jobs jobs;
  let task path () =
    match Dlgp.parse_file path with
    | Error e -> (Fmt.str "%s: error: %a" path Dlgp.pp_error e, exit_input)
    | Ok doc ->
        let kb = Dlgp.kb_of_document doc in
        let report = Chase.run ~budget variant kb in
        ( Throughput.summary_line (Throughput.summarize path report),
          exit_of_outcome report.Chase.outcome )
  in
  with_obs ~trace ~metrics (fun () ->
      Resilience.with_token token (fun () ->
          let results =
            Corechase.Par.Batch.run ~site:"cli.batch"
              (Array.of_list (List.map task manifest))
          in
          let worst = ref exit_ok in
          Array.iter
            (fun r ->
              let line, code =
                match r with
                | Ok (line, code) -> (line, code)
                | Error e ->
                    ( Fmt.str "error: %s" (Printexc.to_string e), exit_input )
              in
              if code > !worst then worst := code;
              Fmt.pr "%s@." line)
            results;
          Fmt.pr "batch:      %d file(s), worst exit %d@."
            (Array.length results) !worst;
          !worst))

let chase_cmd =
  let run file variant engine steps atoms deadline verbose trace metrics
      jobs batch wal wal_sync snap_every =
    if batch && (engine <> None || wal <> None) then
      die exit_input "--batch cannot be combined with --engine or --wal";
    if batch then begin
      run_batch ~file ~variant ~budget:(budget_of steps atoms)
        ~token:(token_of_deadline deadline) ~trace ~metrics ~jobs
    end
    else begin
    let kb = load_kb file in
    (match (variant, wal) with
    | (Chase.Oblivious | Chase.Skolem), Some _ ->
        die exit_input
          "--wal requires a derivation engine (restricted, frugal or core)"
    | _ -> ());
    if engine <> None && wal <> None then
      die exit_input "--wal cannot be combined with --engine";
    Corechase.Par.set_jobs jobs;
    let budget = budget_of steps atoms in
    let token = token_of_deadline deadline in
    let wal_h =
      Option.map (open_wal ~sync:wal_sync ~snapshot_every:snap_every) wal
    in
    (match (wal_h, wal) with
    | Some w, Some dir when not (Storage.Wal.is_empty w) ->
        die exit_input
          "%s already holds a run; use `corechase resume --wal %s' to \
           continue it (or point --wal at a fresh directory)"
          dir dir
    | _ -> ());
    let journal =
      Option.map
        (fun w ->
          Storage.Wal.journal w ~engine:(Chase.variant_name variant)
            ~kb_path:file ~budget ())
        wal_h
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Storage.Wal.close wal_h)
      (fun () ->
        with_obs ~trace ~metrics (fun () ->
            let report =
              match engine with
              | None -> Chase.run ~budget ?token ?journal variant kb
              | Some e ->
                  let choice = resolve_engine ~budget kb e in
                  Chase.run_engine ~budget ?token choice kb
            in
            print_report ~verbose report;
            exit_of_outcome report.Chase.outcome))
    end
  in
  let verbose =
    Arg.(value & flag & info [ "print"; "p" ] ~doc:"Print the final instance.")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Treat $(i,FILE) as a batch manifest: one DLGP path per line \
             (blank lines and $(b,#) comments skipped).  Every KB is chased \
             independently across the domain pool ($(b,--jobs)); one result \
             line per file, in manifest order, identical at every width.  \
             The exit code is the worst per-file code.")
  in
  Cmd.v (Cmd.info "chase" ~doc:"Run a chase variant on a DLGP knowledge base.")
    CTerm.(
      const run $ file_arg $ variant_arg $ engine_arg $ steps_arg $ atoms_arg
      $ deadline_arg $ verbose $ trace_arg $ metrics_arg
      $ jobs_arg $ batch
      $ wal_dir_arg $ wal_sync_arg $ snapshot_every_arg)

(* resume *)
let resume_cmd =
  let variant_of_engine ~where = function
    | "restricted" -> Chase.Restricted
    | "frugal" -> Chase.Frugal
    | "core" -> Chase.Core
    | e -> die exit_input "%s: unknown engine %S" where e
  in
  let check_digest ~where ~kb_file recorded =
    match (recorded, Storage.Wal.digest_of_file kb_file) with
    | Some d, Some d' when d <> d' ->
        (* name the digests, not just the fact of the mismatch: the
           operator deciding whether to re-chase or repoint --file needs
           to see which KB the log was cut against *)
        die exit_input
          "%s: %s changed since the log was written (expected digest %s, \
           found %s); resuming against a different KB would not be exact"
          where kb_file d d'
    | Some _, None ->
        die exit_input "%s: cannot read %s to verify the recorded digest"
          where kb_file
    | _ -> ()
  in
  let run dir file_override steps atoms deadline verbose trace metrics
      jobs wal_sync snap_every =
    (* [open_dir] creates missing directories (right for chase and
       serve); resuming a run that never existed must not *)
    if not (Sys.file_exists dir) then
      die exit_input "%s: no such WAL directory (nothing to resume)" dir;
    let w = open_wal ~sync:wal_sync ~snapshot_every:snap_every dir in
    Fun.protect
      ~finally:(fun () -> Storage.Wal.close w)
      (fun () ->
        let header =
          match Storage.Wal.peek_header w with
          | Ok (Some h) -> h
          | Ok None ->
              die exit_input "%s: WAL is empty (nothing to resume)" dir
          | Error msg -> die exit_input "%s" msg
        in
        let variant =
          variant_of_engine ~where:dir header.Storage.Wal.h_engine
        in
        let kb_file =
          match (file_override, header.Storage.Wal.h_kb_path) with
          | Some f, _ | None, Some f -> f
          | None, None ->
              die exit_input "%s records no KB path; pass --file" dir
        in
        check_digest ~where:dir ~kb_file header.Storage.Wal.h_kb_digest;
        (* KB first (deterministic variable ids), then replay the log:
           recover pins the counters to the last durable boundary *)
        let kb = load_kb kb_file in
        let recovered =
          match Storage.Wal.recover w kb with
          | Ok r -> r
          | Error msg -> die exit_input "%s" msg
        in
        let saved = header.Storage.Wal.h_budget in
        let budget =
          {
            Chase.Variants.max_steps =
              Option.value steps ~default:saved.Chase.Variants.max_steps;
            max_atoms =
              Option.value atoms ~default:saved.Chase.Variants.max_atoms;
          }
        in
        Corechase.Par.set_jobs jobs;
        let token = token_of_deadline deadline in
        let journal =
          Storage.Wal.journal w ~engine:header.Storage.Wal.h_engine
            ~kb_path:kb_file ~budget ~durable:recovered.Storage.Wal.r_durable
            ()
        in
        with_obs ~trace ~metrics (fun () ->
            let report =
              Chase.run ~budget ?token ?resume:recovered.Storage.Wal.r_state
                ~journal variant kb
            in
            print_report ~verbose report;
            exit_of_outcome report.Chase.outcome))
  in
  let wal_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Write-ahead-log directory of the run to continue, as written \
             by $(b,corechase chase --wal).")
  in
  let file_override =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "DLGP file to resume against (default: the path recorded in the \
             log).")
  in
  let steps_override =
    Arg.(
      value & opt (some int) None
      & info [ "steps" ]
          ~doc:"Override the recorded rule-application budget.")
  in
  let atoms_override =
    Arg.(
      value & opt (some int) None
      & info [ "max-atoms" ] ~doc:"Override the recorded instance size budget.")
  in
  let verbose =
    Arg.(value & flag & info [ "print"; "p" ] ~doc:"Print the final instance.")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue a chase from its write-ahead log.  The resumed run \
          agrees step for step with the uninterrupted one (same KB, same \
          budget).")
    CTerm.(
      const run $ wal_dir $ file_override $ steps_override $ atoms_override
      $ deadline_arg $ verbose $ trace_arg $ metrics_arg
      $ jobs_arg $ wal_sync_arg $ snapshot_every_arg)

(* entail *)
let entail_cmd =
  let run file steps atoms max_domain deadline engine =
    let doc = load_document file in
    let kb = Dlgp.kb_of_document doc in
    let budget = budget_of steps atoms in
    let token = token_of_deadline deadline in
    (* the datalog choice saturates; the restricted derivation engine is
       the same fixpoint on full rules, so both map to [`Restricted] *)
    let variant =
      match engine with
      | None -> `Core
      | Some e -> (
          match resolve_engine ~budget kb e with
          | Chase.Engine_core -> `Core
          | Chase.Engine_datalog | Chase.Engine_restricted -> `Restricted)
    in
    (* one chase per document; every query is answered from its final
       element by the function the server's ENTAIL handler calls too,
       so serve ≡ batch CLI holds byte for byte by construction *)
    let lines, sev =
      Resilience.with_token token (fun () ->
          Server.Queryeval.document_lines ~max_domain ~budget kb
            (lazy (Server.Queryeval.chase_snapshot ~variant ~budget kb))
            doc)
    in
    List.iter (Fmt.pr "%s@.") lines;
    if doc.Dlgp.queries = [] then Fmt.pr "no queries in %s@." file;
    Server.Queryeval.exit_code sev
  in
  let max_domain =
    Arg.(value & opt int 4 & info [ "max-domain" ] ~doc:"Countermodel domain budget.")
  in
  Cmd.v
    (Cmd.info "entail"
       ~doc:"Decide the file's Boolean CQs with the chase + countermodel pair of semi-procedures.")
    CTerm.(
      const run $ file_arg $ steps_arg $ atoms_arg $ max_domain $ deadline_arg
      $ engine_arg)

(* analyze / classify *)
let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit with code 3 when the analyzer verdict is $(b,unknown) \
           (without this flag an unknown verdict still exits 0).")

let strict_exit ~strict (report : Analyze.report) =
  if strict && Analyze.verdict report = Analyze.Unknown then exit_input
  else exit_ok

let analyze_cmd =
  let run file steps atoms strict json trace metrics =
    let kb = load_kb file in
    let budget = budget_of steps atoms in
    with_obs ~trace ~metrics (fun () ->
        let report = Analyze.analyze ~budget kb in
        if json then print_endline (Analyze.to_json kb report)
        else begin
          Fmt.pr "%a@." Analyze.pp_report report;
          let choice, reason = Analyze.route_of_report kb report in
          Fmt.pr "route: %s (%s)@." (Chase.engine_name choice) reason
        end;
        strict_exit ~strict report)
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the machine-readable justification trail as JSON.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Termination analysis with a justification trail, and the engine \
          the router would pick (DESIGN.md §13).")
    CTerm.(
      const run $ file_arg $ steps_arg $ atoms_arg $ strict_arg $ json
      $ trace_arg $ metrics_arg)

let classify_cmd =
  let run file steps atoms strict =
    let kb = load_kb file in
    let report = Rclasses.analyze (Kb.rules kb) in
    Fmt.pr "%a@." Rclasses.pp_report report;
    (match
       Corechase.Probes.core_chase_terminates ~budget:(budget_of steps atoms) kb
     with
    | Corechase.Probes.Terminates n ->
        Fmt.pr "core chase: terminates after %d steps@." n
    | Corechase.Probes.No_verdict o ->
        Fmt.pr "core chase: no fixpoint (%s)@."
          (Fmt.str "%a" Resilience.pp_outcome o));
    let profile =
      Corechase.Probes.tw_profile ~budget:(budget_of (min steps 80) atoms)
        ~variant:`Core kb
    in
    Fmt.pr "core-chase treewidth series: %a@."
      Fmt.(list ~sep:sp int)
      profile.Corechase.Probes.series;
    let analysis = Analyze.analyze ~budget:(budget_of steps atoms) kb in
    Fmt.pr "analyzer verdict: %s@." (Analyze.verdict_name (Analyze.verdict analysis));
    strict_exit ~strict analysis
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Syntactic decidability-class analysis plus behavioural probes.")
    CTerm.(const run $ file_arg $ steps_arg $ atoms_arg $ strict_arg)

(* treewidth *)
let treewidth_cmd =
  let run file =
    let kb = load_kb file in
    let facts = Kb.facts kb in
    let w, exact = Treewidth.best_effort facts in
    Fmt.pr "facts: %d atoms over %d terms@." (Atomset.cardinal facts)
      (List.length (Atomset.terms facts));
    Fmt.pr "treewidth: %d (%s)@." w (if exact then "exact" else "min-fill upper bound");
    Fmt.pr "lower bound: %d@." (Treewidth.lower_bound facts);
    let d = Treewidth.decomposition facts in
    Fmt.pr "witnessing decomposition (width %d):@.%a@."
      (Treewidth.Decomposition.width d) Treewidth.Decomposition.pp d;
    exit_ok
  in
  Cmd.v (Cmd.info "treewidth" ~doc:"Treewidth of the facts of a DLGP file.")
    CTerm.(const run $ file_arg)

(* repro *)
let repro_cmd =
  let run names scale trace metrics jobs =
    Corechase.Par.set_jobs jobs;
    let selected =
      if names = [] then Experiments.all
      else
        List.filter
          (fun (n, _) -> List.mem (String.uppercase_ascii n) (List.map String.uppercase_ascii names))
          Experiments.all
    in
    let ok =
      with_obs ~trace ~metrics (fun () ->
          List.fold_left
            (fun acc (name, f) ->
              Fmt.pr "@.";
              let ok = f ?scale:(Some scale) Format.std_formatter in
              Fmt.pr "--- %s: %s ---@." name (if ok then "PASS" else "FAIL");
              acc && ok)
            true selected)
    in
    if ok then exit_ok else 1
  in
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"EXP" ~doc:"Experiment ids (F1..F5, T1); all when omitted.")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Prefix-length scale factor (1 = quick, 3 = thorough).")
  in
  Cmd.v
    (Cmd.info "repro" ~doc:"Regenerate the paper's figures and tables.")
    CTerm.(
      const run $ names $ scale $ trace_arg $ metrics_arg
      $ jobs_arg)

(* dot *)
let dot_cmd =
  let run file what =
    let kb = load_kb file in
    let facts = Kb.facts kb in
    (match what with
    | `Instance -> print_string (Treewidth.Dot.atomset ~name:file facts)
    | `Decomposition ->
        print_string
          (Treewidth.Dot.decomposition ~name:file (Treewidth.decomposition facts)));
    exit_ok
  in
  let what =
    let w =
      Arg.enum [ ("instance", `Instance); ("decomposition", `Decomposition) ]
    in
    Arg.(value & opt w `Instance & info [ "kind"; "k" ] ~doc:"instance or decomposition.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the facts (or their tree decomposition) as Graphviz DOT.")
    CTerm.(const run $ file_arg $ what)

(* tptp *)
let tptp_cmd =
  let run file =
    let doc = load_document file in
    let kb = Dlgp.kb_of_document doc in
    (match doc.Dlgp.queries with
    | [] -> Fmt.pr "no queries in %s@." file
    | qs ->
        List.iteri
          (fun i q ->
            Fmt.pr "%s@."
              (Fol.tptp_problem ~name:(Printf.sprintf "q%d" i) kb q))
          qs);
    exit_ok
  in
  Cmd.v
    (Cmd.info "tptp"
       ~doc:"Export the file's entailment problems in TPTP FOF syntax (one problem per query).")
    CTerm.(const run $ file_arg)

(* bench *)
let bench_cmd =
  let run throughput tasks jobs_list reps scale =
    if not throughput then
      die exit_input
        "only --throughput is available here; the full harness is `dune exec \
         bench/main.exe'";
    if tasks < 1 then die exit_input "--tasks must be >= 1";
    if reps < 1 then die exit_input "--reps must be >= 1";
    if jobs_list = [] || List.exists (fun j -> j < 1) jobs_list then
      die exit_input "--jobs-list must be positive widths (e.g. 1,2,4)";
    let mix = Throughput.mix ~scale ~count:tasks () in
    let rows, identical = Throughput.curves ~reps ~jobs_list mix in
    Fmt.pr "throughput: %d independent chase jobs, median of %d rep(s)@." tasks
      reps;
    Throughput.pp_rows Format.std_formatter rows;
    Fmt.pr "results identical across widths/reps: %s@."
      (if identical then "yes" else "NO (determinism violation)");
    if identical then exit_ok else 1
  in
  let throughput =
    Arg.(
      value & flag
      & info [ "throughput" ]
          ~doc:
            "Run the batched-throughput curves (DESIGN.md §14): the standard \
             deterministic task mix through $(b,Par.Batch) at each width of \
             $(b,--jobs-list), reporting wall-clock, tasks/s, speedup and \
             efficiency, plus the cross-width determinism verdict.")
  in
  let tasks =
    Arg.(
      value
      & opt int Throughput.default_count
      & info [ "tasks" ] ~docv:"N" ~doc:"Batch size (independent chase jobs).")
  in
  let jobs_list =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "jobs-list" ] ~docv:"WIDTHS"
          ~doc:"Comma-separated pool widths to measure (default 1,2,4).")
  in
  let reps =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"R" ~doc:"Timed runs per width; the median is kept.")
  in
  let scale =
    Arg.(
      value & opt int 1
      & info [ "scale" ] ~doc:"Step-budget scale factor for each job.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Measure batched chase throughput across domain-pool widths \
          (speedup/efficiency curves).")
    CTerm.(const run $ throughput $ tasks $ jobs_list $ reps $ scale)

(* zoo *)
let zoo_cmd =
  let kbs () =
    Zoo.Classic.all_named ()
    @ [ ("steepening-staircase", Zoo.Staircase.kb ());
        ("inflating-elevator", Zoo.Elevator.kb ()) ]
    @ Zoo.Families.named ()
  in
  let run name =
    match name with
    | None ->
        List.iter (fun (n, _) -> Fmt.pr "%s@." n) (kbs ());
        exit_ok
    | Some n -> (
        match List.assoc_opt n (kbs ()) with
        | None ->
            die exit_input "unknown KB %s (try `corechase zoo' to list)" n
        | Some kb ->
            let doc =
              { Dlgp.facts = Kb.facts kb; rules = Kb.rules kb; egds = Kb.egds kb; queries = []; constraints = [] }
            in
            Fmt.pr "%a@." Dlgp.print_document doc;
            exit_ok)
  in
  let name_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "zoo" ~doc:"List or print the built-in knowledge bases in DLGP syntax.")
    CTerm.(const run $ name_arg)

(* serve / client (DESIGN.md §15) *)
let serve_cmd =
  let run listens drain ready_file quiet trace metrics jobs wal wal_sync
      snap_every =
    let endpoints =
      List.map
        (fun s ->
          match Server.endpoint_of_string s with
          | Ok e -> e
          | Error m -> die exit_input "%s" m)
        listens
    in
    Corechase.Par.set_jobs jobs;
    let wal_h =
      Option.map (open_wal ~sync:wal_sync ~snapshot_every:snap_every) wal
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Storage.Wal.close wal_h)
      (fun () ->
        with_obs ~trace ~metrics (fun () ->
            match
              Server.serve
                {
                  Server.endpoints;
                  drain_timeout = drain;
                  ready_file;
                  quiet;
                  wal = wal_h;
                }
            with
            | Ok () -> exit_ok
            | Error m -> die exit_input "%s" m))
  in
  let listen_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "listen"; "l" ] ~docv:"ENDPOINT"
          ~doc:
            "Listen endpoint, $(b,unix:PATH) or $(b,tcp:HOST:PORT); repeat \
             the flag to serve several endpoints at once.")
  in
  let drain_arg =
    Arg.(
      value & opt int 5
      & info [ "drain-timeout" ] ~docv:"SECONDS"
          ~doc:
            "After SIGTERM (or a SHUTDOWN request) stop accepting and wait \
             this long for in-flight work before cancelling it through the \
             per-connection tokens.")
  in
  let ready_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ready-file" ] ~docv:"FILE"
          ~doc:
            "Write $(docv) (one bound endpoint per line) once every listener \
             is bound — scripts wait on the file instead of polling connect.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress the stderr lifecycle notes.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve long-lived KB sessions over the corechase wire protocol: one \
          chase writer per session, many concurrent snapshot readers \
          (DESIGN.md §15).")
    CTerm.(
      const run $ listen_arg $ drain_arg $ ready_file_arg $ quiet_arg
      $ trace_arg $ metrics_arg $ jobs_arg $ wal_dir_arg $ wal_sync_arg
      $ snapshot_every_arg)

let client_cmd =
  let run connect wait reqs =
    match Server.endpoint_of_string connect with
    | Error m -> die exit_input "%s" m
    | Ok ep -> (
        match Server.Client.run ~wait_s:wait ep reqs with
        | Ok code -> code
        | Error m -> die exit_input "%s" m)
  in
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect"; "c" ] ~docv:"ENDPOINT"
          ~doc:"Server endpoint, $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let wait_arg =
    Arg.(
      value & opt float 5.0
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:
            "Retry connecting for up to $(docv) seconds (the server may \
             still be binding).")
  in
  let reqs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Request payloads, sent in order; $(b,\\\\n) escapes separate a \
             payload's lines (e.g. 'ENTAIL s\\\\np(X)?').")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running $(b,corechase serve) and print the \
          response frames.")
    CTerm.(const run $ connect_arg $ wait_arg $ reqs_arg)

let () =
  let info =
    Cmd.info "corechase" ~version:"1.0.0"
      ~doc:"Existential-rule reasoning: chase variants, treewidth, robust aggregation (PODS'23 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            chase_cmd; resume_cmd; entail_cmd; analyze_cmd; classify_cmd;
            treewidth_cmd; repro_cmd; tptp_cmd; dot_cmd; zoo_cmd; bench_cmd;
            serve_cmd; client_cmd;
          ]))
