(* Tests for lib/resilience and its threading through the chase engines
   (DESIGN.md §11): budget boundary conditions, deadlines, cancellation,
   caught resource exhaustion, the hom depth guard, deterministic fault
   injection, resuming a budget stop from the write-ahead log, and the
   kill/resume exactness differential at the engine boundary (its
   through-the-log counterpart lives in test_storage.ml). *)

open Syntax

let tc name f = Alcotest.test_case name `Quick f

let reset () = Term.reset_counter_for_tests ()

let atom p args = Atom.make p args

let small = { Chase.Variants.max_steps = 12; max_atoms = 5_000 }

(* a KB with work to do (infinite chain) *)
let kb_chain () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  Kb.of_lists
    ~facts:[ atom "r" [ Term.const "a"; Term.const "b" ] ]
    ~rules:
      [ Rule.make ~name:"chain" ~body:[ atom "r" [ x; y ] ]
          ~head:[ atom "r" [ y; z ] ] () ]

(* the four Definition-1 engines under test *)
type runner = {
  ename : string;
  erun :
    ?token:Resilience.Token.t ->
    ?resume:Chase.Variants.engine_state ->
    ?journal:Chase.Variants.journal ->
    budget:Chase.Variants.budget ->
    Kb.t ->
    Chase.Variants.run;
}

let runners =
  [
    {
      ename = "restricted";
      erun =
        (fun ?token ?resume ?journal ~budget kb ->
          Chase.Variants.restricted ~budget ?token ?resume ?journal kb);
    };
    {
      ename = "frugal";
      erun =
        (fun ?token ?resume ?journal ~budget kb ->
          Chase.Variants.frugal ~budget ?token ?resume ?journal kb);
    };
    {
      ename = "core-app";
      erun =
        (fun ?token ?resume ?journal ~budget kb ->
          Chase.Variants.core ~budget ?token ?resume ?journal kb);
    };
    {
      ename = "core-round";
      erun =
        (fun ?token ?resume ?journal ~budget kb ->
          Chase.Variants.core ~cadence:Chase.Variants.Every_round ~budget
            ?token ?resume ?journal kb);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Budget boundary conditions: every engine returns a well-formed run,
   never raises *)

let test_zero_step_budget () =
  List.iter
    (fun r ->
      reset ();
      let run =
        r.erun ~budget:{ Chase.Variants.max_steps = 0; max_atoms = 5_000 }
          (kb_chain ())
      in
      Alcotest.(check bool)
        (r.ename ^ ": step budget") true
        (run.Chase.Variants.outcome = Chase.Variants.Step_budget);
      Alcotest.(check int)
        (r.ename ^ ": no step applied") 1
        (Chase.Derivation.length run.Chase.Variants.derivation))
    runners

let test_atom_budget_below_initial () =
  List.iter
    (fun r ->
      reset ();
      (* the chain KB starts with 1 atom; max_atoms = 0 is already
         exceeded at F_0 *)
      let run =
        r.erun ~budget:{ Chase.Variants.max_steps = 50; max_atoms = 0 }
          (kb_chain ())
      in
      Alcotest.(check bool)
        (r.ename ^ ": atom budget") true
        (run.Chase.Variants.outcome = Chase.Variants.Atom_budget);
      Alcotest.(check int)
        (r.ename ^ ": start element only") 1
        (Chase.Derivation.length run.Chase.Variants.derivation))
    runners

let test_pre_expired_deadline () =
  List.iter
    (fun r ->
      reset ();
      let token = Resilience.Token.create ~deadline_s:0.0 () in
      let run = r.erun ~token ~budget:small (kb_chain ()) in
      Alcotest.(check bool)
        (r.ename ^ ": deadline") true
        (run.Chase.Variants.outcome = Chase.Variants.Deadline);
      (* the last consistent instance is still there *)
      Alcotest.(check bool)
        (r.ename ^ ": well-formed derivation") true
        (Chase.Derivation.length run.Chase.Variants.derivation >= 1))
    runners

let test_baselines_and_egds_boundaries () =
  reset ();
  let token = Resilience.Token.create ~deadline_s:0.0 () in
  let ob = Chase.Variants.Baseline.oblivious ~budget:small ~token (kb_chain ()) in
  Alcotest.(check bool) "oblivious deadline" true
    (ob.Chase.Variants.Baseline.outcome = Chase.Variants.Deadline
    && not (Resilience.terminated ob.Chase.Variants.Baseline.outcome));
  reset ();
  let sk =
    Chase.Variants.Baseline.skolem
      ~budget:{ Chase.Variants.max_steps = 0; max_atoms = 100 }
      (kb_chain ())
  in
  Alcotest.(check bool) "skolem step budget" true
    (sk.Chase.Variants.Baseline.outcome = Chase.Variants.Step_budget);
  reset ();
  let eg =
    Chase.Variants.Egds.run
      ~budget:{ Chase.Variants.max_steps = 0; max_atoms = 100 }
      (kb_chain ())
  in
  Alcotest.(check bool) "egds step budget" true
    (eg.Chase.Variants.Egds.outcome
    = Chase.Variants.Egds.Stopped Chase.Variants.Step_budget)

(* ------------------------------------------------------------------ *)
(* Cancellation mid-run: flip the token from the round-boundary event *)

let test_cancellation_mid_run () =
  List.iter
    (fun r ->
      reset ();
      let token = Resilience.Token.create () in
      let rounds_seen = ref 0 in
      let run =
        r.erun ~token
          ~journal:(function
            | Chase.Variants.J_round _ ->
                incr rounds_seen;
                Resilience.Token.cancel token
            | _ -> ())
          ~budget:small (kb_chain ())
      in
      Alcotest.(check bool)
        (r.ename ^ ": cancelled") true
        (run.Chase.Variants.outcome = Chase.Variants.Cancelled);
      Alcotest.(check bool)
        (r.ename ^ ": saw a round boundary") true (!rounds_seen >= 1))
    runners

(* ------------------------------------------------------------------ *)
(* Fault injection: seeded faults surface as the documented outcomes,
   with the last consistent instance intact *)

let with_faults spec f =
  Resilience.Fault.set_spec spec;
  Fun.protect ~finally:Resilience.Fault.clear f

(* The datalog engine stops between rounds like the others: a
   transitive closure over a 12-edge chain needs several rounds, so a
   token tripped before or during saturation leaves a completed round
   short of the fixpoint.  [Analyze.route] is checked on the same KB
   so the --engine auto path is the one under test. *)
let kb_tc_chain () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  Kb.of_lists
    ~facts:
      (List.init 12 (fun i ->
           atom "e"
             [ Term.const (Printf.sprintf "n%d" i);
               Term.const (Printf.sprintf "n%d" (i + 1)) ]))
    ~rules:
      [ Rule.make ~name:"trans" ~body:[ atom "e" [ x; y ]; atom "e" [ y; z ] ]
          ~head:[ atom "e" [ x; z ] ] () ]

let test_datalog_engine_token () =
  reset ();
  let kb = kb_tc_chain () in
  let choice = Analyze.route kb in
  Alcotest.(check string) "routed to datalog" "datalog"
    (Chase.engine_name choice);
  let rounds = Chase.Datalog.rounds (Kb.rules kb) (Kb.facts kb) in
  Alcotest.(check bool) "several rounds" true (List.length rounds > 3);
  let expired = Resilience.Token.create ~deadline_s:0.0 () in
  let r = Chase.run_engine ~token:expired choice kb in
  Alcotest.(check string) "deadline" "deadline"
    (Resilience.outcome_name r.Chase.outcome);
  Alcotest.(check bool) "final = facts" true
    (Atomset.equal r.Chase.final (Kb.facts kb));
  Alcotest.(check int) "no steps" 0 r.Chase.steps;
  (* cancelled at the start of round 3: rounds 1 and 2 completed *)
  let token = Resilience.Token.create () in
  let r =
    with_faults "round:3:cancel" (fun () ->
        Chase.run_engine ~token choice kb)
  in
  Alcotest.(check string) "cancelled" "cancelled"
    (Resilience.outcome_name r.Chase.outcome);
  Alcotest.(check bool) "final = last completed round" true
    (Atomset.equal r.Chase.final (List.nth rounds 2));
  let cancelled = Resilience.Token.create () in
  Resilience.Token.cancel cancelled;
  Alcotest.(check string) "pre-cancelled token" "cancelled"
    (Resilience.outcome_name
       (Chase.run_engine ~token:cancelled choice kb).Chase.outcome);
  let free = Chase.run_engine choice kb in
  Alcotest.(check bool) "no token: fixpoint" true
    (Resilience.terminated free.Chase.outcome
    && Atomset.equal free.Chase.final (List.nth rounds (List.length rounds - 1)))

let test_fault_kinds () =
  List.iter
    (fun (spec, expected) ->
      reset ();
      with_faults spec (fun () ->
          let run = Chase.Variants.restricted ~budget:small (kb_chain ()) in
          Alcotest.(check bool)
            (spec ^ " outcome") true
            (run.Chase.Variants.outcome = expected);
          Alcotest.(check bool)
            (spec ^ " consistent instance") true
            (Chase.Derivation.validate run.Chase.Variants.derivation
            = Ok ())))
    [
      ("step:2:stack_overflow", Chase.Variants.Resource `Stack_overflow);
      ("step:2:out_of_memory", Chase.Variants.Resource `Out_of_memory);
      ("round:2:deadline", Chase.Variants.Deadline);
      ("step:3:cancel", Chase.Variants.Cancelled);
    ]

let test_fault_census_counts () =
  reset ();
  let before = Resilience.Fault.hits "step" in
  with_faults "step:4:cancel" (fun () ->
      ignore (Chase.Variants.restricted ~budget:small (kb_chain ())));
  Alcotest.(check bool) "step site was exercised" true
    (Resilience.Fault.hits "step" >= before + 4)

let test_fault_in_core_fold () =
  reset ();
  with_faults "fold:1:out_of_memory" (fun () ->
      let run = Chase.Variants.core ~budget:small (kb_chain ()) in
      Alcotest.(check bool) "fold fault caught" true
        (run.Chase.Variants.outcome
        = Chase.Variants.Resource `Out_of_memory))

(* ------------------------------------------------------------------ *)
(* Hom depth guard: a source beyond the depth bound raises a synthetic
   Stack_overflow instead of risking the real one deep in the search *)

let test_hom_depth_guard_direct () =
  reset ();
  let chain n =
    List.init n (fun i ->
        atom "p"
          [ Term.const (Printf.sprintf "c%d" i);
            Term.const (Printf.sprintf "c%d" (i + 1)) ])
    |> Atomset.of_list
  in
  let src = chain 10 and tgt = chain 10 in
  let saved = !Homo.Hom.max_depth in
  Fun.protect
    ~finally:(fun () -> Homo.Hom.max_depth := saved)
    (fun () ->
      Homo.Hom.max_depth := 5;
      (match Homo.Hom.maps_to src tgt with
      | _ -> Alcotest.fail "expected Stack_overflow from the depth guard"
      | exception Stack_overflow -> ());
      Homo.Hom.max_depth := saved;
      Alcotest.(check bool) "identity hom found below the bound" true
        (Homo.Hom.maps_to src tgt))

let test_hom_depth_guard_reaches_engine_boundary () =
  reset ();
  let saved = !Homo.Hom.max_depth in
  Fun.protect
    ~finally:(fun () -> Homo.Hom.max_depth := saved)
    (fun () ->
      (* the chain instance quickly outgrows a tiny depth bound, so the
         core engine's fold search trips the guard; the engine reports
         it as an outcome instead of crashing *)
      Homo.Hom.max_depth := 2;
      let run = Chase.Variants.core ~budget:small (kb_chain ()) in
      Alcotest.(check bool) "engine caught the overflow" true
        (run.Chase.Variants.outcome
        = Chase.Variants.Resource `Stack_overflow))

(* ------------------------------------------------------------------ *)
(* Outcome naming round trip *)

let test_outcome_names () =
  List.iter
    (fun o ->
      match Resilience.outcome_of_name (Resilience.outcome_name o) with
      | Some o' ->
          Alcotest.(check bool)
            (Resilience.outcome_name o ^ " round trip") true (o = o')
      | None -> Alcotest.fail "outcome_of_name failed")
    [
      Resilience.Fixpoint; Resilience.Step_budget; Resilience.Atom_budget;
      Resilience.Deadline; Resilience.Resource `Stack_overflow;
      Resilience.Resource `Out_of_memory; Resilience.Cancelled;
    ]

(* ------------------------------------------------------------------ *)
(* Resuming a budget stop from the write-ahead log: a run stopped by a
   small step budget, recovered from its log in a simulated fresh
   process and resumed with a larger budget, continues to exactly the
   run the larger budget produces from scratch. *)

let same_run label (a : Chase.Variants.run) (b : Chase.Variants.run) =
  Alcotest.(check bool)
    (label ^ ": same outcome") true
    (a.Chase.Variants.outcome = b.Chase.Variants.outcome);
  Alcotest.(check int)
    (label ^ ": same rounds")
    a.Chase.Variants.rounds b.Chase.Variants.rounds;
  let da = a.Chase.Variants.derivation and db = b.Chase.Variants.derivation in
  Alcotest.(check int)
    (label ^ ": same length")
    (Chase.Derivation.length da)
    (Chase.Derivation.length db);
  List.iter2
    (fun (x : Chase.Derivation.step) (y : Chase.Derivation.step) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %d pre-instance" label
           x.Chase.Derivation.index)
        true
        (Atomset.equal x.Chase.Derivation.pre_instance
           y.Chase.Derivation.pre_instance);
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %d simplification" label
           x.Chase.Derivation.index)
        true
        (Subst.equal x.Chase.Derivation.simplification
           y.Chase.Derivation.simplification);
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %d instance" label x.Chase.Derivation.index)
        true
        (Atomset.equal x.Chase.Derivation.instance y.Chase.Derivation.instance))
    (Chase.Derivation.steps da)
    (Chase.Derivation.steps db)

(* a fresh WAL directory, removed afterwards *)
let with_wal_dir f =
  let dir = Filename.temp_file "corechase" ".wal" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n -> Sys.remove (Filename.concat dir n))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let ok label = function
  | Ok v -> v
  | Error m -> Alcotest.fail (label ^ ": " ^ m)

let test_resume_after_clean_budget_stop () =
  let big = { Chase.Variants.max_steps = 24; max_atoms = 5_000 } in
  List.iter
    (fun r ->
      reset ();
      let reference = r.erun ~budget:big (Zoo.Staircase.kb ()) in
      reset ();
      with_wal_dir @@ fun dir ->
      (let w = ok r.ename (Storage.Wal.open_dir dir) in
       let journal = Storage.Wal.journal w ~engine:r.ename ~budget:small () in
       let (_ : Chase.Variants.run) =
         r.erun ~budget:small ~journal (Zoo.Staircase.kb ())
       in
       Storage.Wal.close w);
      (* fresh "process": counters reset, the KB rebuilt the same
         deterministic way, then the log replayed (which re-pins the
         freshness counters) before any new term exists *)
      reset ();
      let kb3 = Zoo.Staircase.kb () in
      let w = ok r.ename (Storage.Wal.open_dir dir) in
      let recovered = ok r.ename (Storage.Wal.recover w kb3) in
      Alcotest.(check bool)
        (r.ename ^ ": a round boundary is durable") true
        (recovered.Storage.Wal.r_state <> None);
      let journal =
        Storage.Wal.journal w ~engine:r.ename ~budget:big
          ~durable:recovered.Storage.Wal.r_durable ()
      in
      let resumed =
        r.erun ~budget:big ?resume:recovered.Storage.Wal.r_state ~journal kb3
      in
      Storage.Wal.close w;
      same_run (r.ename ^ "/staircase-extend") reference resumed)
    runners

(* ------------------------------------------------------------------ *)
(* Kill/resume differential at the engine boundary: for every engine
   and workload, a run killed by an injected fault and resumed from the
   last round-boundary state its journal offered — with the freshness
   counters that state was taken under — must agree step for step with
   the uninterrupted run: same derivation, same final instance, same
   outcome.  No log is involved: this pins the [engine_state] contract
   the WAL (test_storage.ml) builds on.  Exercised at jobs=1 and jobs=4
   (the deterministic pool keeps runs identical). *)

let diff_budget = { Chase.Variants.max_steps = 30; max_atoms = 5_000 }

let workloads =
  [
    ("transitive-closure", Zoo.Classic.transitive_closure);
    ("staircase", Zoo.Staircase.kb);
    ("elevator", Zoo.Elevator.kb);
    ("randomkb", fun () -> Zoo.Randomkb.generate ~seed:7 Zoo.Randomkb.datalog);
  ]

(* One kill/resume round trip: reference run; a run with [spec] faults
   armed whose journal keeps the last completed round's state and the
   counter values at that boundary; then — simulating a fresh process —
   counters reset, KB rebuilt, counters re-pinned and the run resumed.
   Every cell of the matrix completes a round before its kill. *)
let differential ~spec r (wname, build) =
  let label = Printf.sprintf "%s/%s[%s]" r.ename wname spec in
  reset ();
  let reference = r.erun ~budget:diff_budget (build ()) in
  reset ();
  let kb2 = build () in
  let last = ref None in
  let (_ : Chase.Variants.run) =
    with_faults spec (fun () ->
        r.erun ~budget:diff_budget
          ~journal:(function
            | Chase.Variants.J_round { state; _ } ->
                last := Some (state, Term.counter_value ())
            | _ -> ())
          kb2)
  in
  (* fresh "process": counters reset, the KB rebuilt the same
     deterministic way, then the boundary's counters re-pinned before
     any new term exists *)
  reset ();
  let kb3 = build () in
  match !last with
  | None -> Alcotest.fail (label ^ ": no round completed before the kill")
  | Some (state, tc) ->
      Term.restore_counter_for_resume tc;
      let resumed = r.erun ~budget:diff_budget ~resume:state kb3 in
      same_run label reference resumed

let differential_all () =
  List.iter
    (fun r ->
      List.iter
        (fun w ->
          (* a clean round-boundary kill and a mid-round one *)
          differential ~spec:"round:3:cancel" r w;
          differential ~spec:"step:7:out_of_memory" r w)
        workloads)
    runners

let test_kill_resume_differential_jobs1 () =
  Par.with_jobs 1 differential_all

let test_kill_resume_differential_jobs4 () =
  Par.with_jobs 4 differential_all

(* ------------------------------------------------------------------ *)
(* resilience metrics are recorded at the boundary *)

let test_resilience_metrics () =
  reset ();
  Obs.Metrics.reset ();
  Obs.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.enabled := false)
    (fun () ->
      let token = Resilience.Token.create ~deadline_s:0.0 () in
      ignore (Chase.Variants.restricted ~budget:small ~token (kb_chain ()));
      Alcotest.(check bool) "deadline hit counted" true
        (Obs.Metrics.counter_value "resilience.deadline_hits" >= 1);
      reset ();
      with_faults "step:1:out_of_memory" (fun () ->
          ignore (Chase.Variants.restricted ~budget:small (kb_chain ())));
      Alcotest.(check bool) "fault + resource counted" true
        (Obs.Metrics.counter_value "resilience.faults_injected" >= 1
        && Obs.Metrics.counter_value "resilience.resource_caught" >= 1))

let suites =
  [
    ( "resilience.boundaries",
      [
        tc "zero step budget" test_zero_step_budget;
        tc "atom budget below initial" test_atom_budget_below_initial;
        tc "pre-expired deadline" test_pre_expired_deadline;
        tc "baselines and egds" test_baselines_and_egds_boundaries;
        tc "cancellation mid-run" test_cancellation_mid_run;
        tc "datalog engine honours the token" test_datalog_engine_token;
      ] );
    ( "resilience.faults",
      [
        tc "fault kinds surface as outcomes" test_fault_kinds;
        tc "census counts hits" test_fault_census_counts;
        tc "fault in core fold" test_fault_in_core_fold;
      ] );
    ( "resilience.hom-guard",
      [
        tc "direct depth guard" test_hom_depth_guard_direct;
        tc "engine catches the overflow"
          test_hom_depth_guard_reaches_engine_boundary;
      ] );
    ( "resilience.checkpoint",
      [
        tc "outcome names round trip" test_outcome_names;
        tc "resume extends a budget stop" test_resume_after_clean_budget_stop;
      ] );
    ( "resilience.differential",
      [
        tc "kill/resume, jobs=1" test_kill_resume_differential_jobs1;
        tc "kill/resume, jobs=4" test_kill_resume_differential_jobs4;
      ] );
    ( "resilience.metrics", [ tc "boundary counters" test_resilience_metrics ] );
  ]
