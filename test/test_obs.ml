(* Differential telemetry tests (DESIGN.md §8): the trace-event stream and
   the metrics registry must agree with what the engines report through
   their ordinary return values — [Chase.report.steps], [Variants.run.rounds],
   the derivation's simplification record — on every variant, over the
   zoo KBs and random ones.  Plus the sink contracts: JSONL lines parse
   and round-trip, and the null sink never sees an event. *)

open Syntax

let budget = { Chase.Variants.max_steps = 25; max_atoms = 2_000 }

let kbs () =
  [
    ("staircase", Zoo.Staircase.kb ());
    ("elevator", Zoo.Elevator.kb ());
  ]
  @ List.mapi
      (fun i kb -> (Printf.sprintf "random-%d" i, kb))
      (Zoo.Randomkb.generate_many ~seed:42 ~count:4 Zoo.Randomkb.default)

(* run [f] under a collecting sink, returning its result and the events *)
let collect f =
  let events = ref [] in
  let r =
    Obs.Trace.with_sink
      (Obs.Trace.Custom (fun e -> events := e :: !events))
      f
  in
  (r, List.rev !events)

let count p evs = List.length (List.filter p evs)

let is_applied = function Obs.Trace.Trigger_applied _ -> true | _ -> false

let is_round = function Obs.Trace.Round_start _ -> true | _ -> false

let is_retract = function Obs.Trace.Retract _ -> true | _ -> false

let is_merge = function Obs.Trace.Egd_merge _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Trigger_applied events ≡ Chase.report.steps, all five variants *)

let variants =
  [ Chase.Oblivious; Chase.Skolem; Chase.Restricted; Chase.Frugal; Chase.Core ]

let test_applied_equals_steps () =
  List.iter
    (fun (kname, kb) ->
      List.iter
        (fun v ->
          let report, evs = collect (fun () -> Chase.run ~budget v kb) in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: applied events = report.steps" kname
               (Chase.variant_name v))
            report.Chase.steps (count is_applied evs))
        variants)
    (kbs ())

(* ------------------------------------------------------------------ *)
(* Round_start events ≡ run.rounds; applied ≡ derivation length - 1 *)

let def1_engines =
  [
    ("restricted", fun kb -> Chase.Variants.restricted ~budget kb);
    ("frugal", fun kb -> Chase.Variants.frugal ~budget kb);
    ("core", fun kb -> Chase.Variants.core ~budget kb);
    ( "core-round",
      fun kb -> Chase.Variants.core ~budget ~cadence:Chase.Variants.Every_round kb );
  ]

let test_rounds_and_lengths () =
  List.iter
    (fun (kname, kb) ->
      List.iter
        (fun (ename, engine) ->
          let run, evs = collect (fun () -> engine kb) in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: round events = rounds" kname ename)
            run.Chase.Variants.rounds (count is_round evs);
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: applied events = |derivation| - 1" kname
               ename)
            (Chase.Derivation.length run.Chase.Variants.derivation - 1)
            (count is_applied evs))
        def1_engines)
    (kbs ())

(* ------------------------------------------------------------------ *)
(* Retract events ≡ derivation steps with a nonempty simplification
   (step 0 included: σ_0 = retraction-to-core of the facts) *)

let test_retracts_match_simplifications () =
  List.iter
    (fun (kname, kb) ->
      List.iter
        (fun (ename, engine) ->
          let run, evs = collect (fun () -> engine kb) in
          let folds =
            List.length
              (List.filter
                 (fun (st : Chase.Derivation.step) ->
                   not (Subst.is_empty st.Chase.Derivation.simplification))
                 (Chase.Derivation.steps run.Chase.Variants.derivation))
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: retract events = nonempty σ_i" kname ename)
            folds (count is_retract evs))
        def1_engines)
    (kbs ())

(* ------------------------------------------------------------------ *)
(* Metrics registry agrees with the same quantities *)

let test_metrics_agree () =
  List.iter
    (fun (kname, kb) ->
      Corechase.Obs.Metrics.reset ();
      Corechase.Obs.Metrics.enabled := true;
      let run =
        Fun.protect
          ~finally:(fun () -> Corechase.Obs.Metrics.enabled := false)
          (fun () -> Chase.Variants.core ~budget kb)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: chase.triggers_applied counter" kname)
        (Chase.Derivation.length run.Chase.Variants.derivation - 1)
        (Obs.Metrics.counter_value "chase.triggers_applied");
      Alcotest.(check int)
        (Printf.sprintf "%s: chase.rounds counter" kname)
        run.Chase.Variants.rounds
        (Obs.Metrics.counter_value "chase.rounds"))
    (kbs ())

(* ------------------------------------------------------------------ *)
(* Stream engine: one Trigger_applied per derivation extension *)

let take n seq =
  let rec go n seq acc =
    if n = 0 then List.rev acc
    else
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons (x, rest) -> go (n - 1) rest (x :: acc)
  in
  go n seq []

let stream_rounds evs =
  List.filter_map
    (function
      | Obs.Trace.Round_start { engine = "stream"; round; _ } -> Some round
      | _ -> None)
    evs

let test_stream_events () =
  let elems, evs =
    collect (fun () ->
        take 6 (Chase.Variants.stream ~variant:`Restricted (Zoo.Staircase.kb ())))
  in
  Alcotest.(check int) "stream: applied events = elements - 1"
    (List.length elems - 1)
    (count is_applied evs);
  let rounds = stream_rounds evs in
  Alcotest.(check (list int)) "stream: rounds count 1..n"
    (List.init (List.length rounds) (fun i -> i + 1))
    rounds;
  (* run to the fixpoint, the stream starts as many rounds as the eager
     engine of its variant *)
  let budget = { Chase.Variants.max_steps = 2_000; max_atoms = 20_000 } in
  List.iteri
    (fun i kb ->
      List.iter
        (fun (vname, variant, eager) ->
          let label what = Printf.sprintf "datalog-%d/%s: %s" i vname what in
          let _, evs =
            collect (fun () -> List.of_seq (Chase.Variants.stream ~variant kb))
          in
          let run = eager kb in
          Alcotest.(check bool) (label "eager fixpoint") true
            (run.Chase.Variants.outcome = Chase.Variants.Fixpoint);
          Alcotest.(check (list int)) (label "stream rounds = 1..run.rounds")
            (List.init run.Chase.Variants.rounds (fun i -> i + 1))
            (stream_rounds evs))
        [
          ( "restricted",
            `Restricted,
            fun kb -> Chase.Variants.restricted ~budget kb );
          ("frugal", `Frugal, fun kb -> Chase.Variants.frugal ~budget kb);
          ("core", `Core, fun kb -> Chase.Variants.core ~budget kb);
        ])
    (Zoo.Randomkb.generate_many ~seed:47 ~count:3 Zoo.Randomkb.datalog)

(* ------------------------------------------------------------------ *)
(* EGD engine: a TGD application then one unification *)

let egd_kb () =
  let x = Term.fresh_var ~hint:"X" ()
  and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  let a = Term.const "a" and b = Term.const "b" in
  let kb =
    Kb.of_lists
      ~facts:[ Atom.make "p" [ a; b ] ]
      ~rules:
        [
          Rule.make ~name:"mk_q"
            ~body:[ Atom.make "p" [ x; y ] ]
            ~head:[ Atom.make "q" [ x; z ] ]
            ();
        ]
  in
  let x' = Term.fresh_var ~hint:"X" () and y' = Term.fresh_var ~hint:"Y" () in
  Kb.with_egds
    [ Egd.make ~body:[ Atom.make "q" [ x'; y' ] ] x' y' ]
    kb

let test_egd_events () =
  let run, evs = collect (fun () -> Chase.Variants.Egds.run (egd_kb ())) in
  let applied = count is_applied evs and merges = count is_merge evs in
  Alcotest.(check int) "egd: one TGD application" 1 applied;
  Alcotest.(check int) "egd: one unification" 1 merges;
  Alcotest.(check int) "egd: steps = applications + unifications"
    run.Chase.Variants.Egds.steps (applied + merges);
  Alcotest.(check bool) "egd: terminated" true
    (run.Chase.Variants.Egds.outcome = Chase.Variants.Egds.Terminated)

(* ------------------------------------------------------------------ *)
(* Hom_backtrack: a dead-ending search reports its backtracks *)

let test_hom_backtrack () =
  let x = Term.fresh_var ~hint:"X" () in
  let src = Atomset.of_list [ Atom.make "p" [ x; x ] ] in
  let tgt =
    Homo.Instance.of_atomset
      (Atomset.of_list [ Atom.make "p" [ Term.const "a"; Term.const "b" ] ])
  in
  let found, evs = collect (fun () -> Homo.Hom.exists src tgt) in
  Alcotest.(check bool) "no homomorphism" false found;
  match List.filter (function Obs.Trace.Hom_backtrack _ -> true | _ -> false) evs with
  | [ Obs.Trace.Hom_backtrack f ] ->
      Alcotest.(check bool) "backtracks reported" true (f.backtracks >= 1);
      Alcotest.(check int) "src size" 1 f.src_atoms;
      Alcotest.(check int) "tgt size" 1 f.tgt_atoms
  | evs' ->
      Alcotest.failf "expected exactly one Hom_backtrack event, got %d"
        (List.length evs')

(* ------------------------------------------------------------------ *)
(* Tw_decomposed: width computations announce themselves *)

let test_tw_events () =
  let a = Term.const "a" and b = Term.const "b" and c = Term.const "c" in
  let triangle =
    Atomset.of_list
      [ Atom.make "p" [ a; b ]; Atom.make "p" [ b; c ]; Atom.make "p" [ c; a ] ]
  in
  let (w, ex), evs = collect (fun () -> Treewidth.best_effort triangle) in
  Alcotest.(check int) "triangle width" 2 w;
  Alcotest.(check bool) "triangle exact" true ex;
  match List.filter (function Obs.Trace.Tw_decomposed _ -> true | _ -> false) evs with
  | Obs.Trace.Tw_decomposed f :: _ ->
      Alcotest.(check int) "vertices" 3 f.vertices;
      Alcotest.(check int) "width" 2 f.width;
      Alcotest.(check bool) "exact" true f.exact
  | _ -> Alcotest.fail "expected a Tw_decomposed event"

(* ------------------------------------------------------------------ *)
(* JSONL sink: every line parses and round-trips *)

let test_jsonl_sink () =
  let path = Filename.temp_file "corechase" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (Obs.Trace.with_jsonl_file path (fun () ->
             Chase.Variants.core ~budget (Zoo.Staircase.kb ())));
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      Alcotest.(check bool) "some events written" true (List.length lines > 0);
      List.iter
        (fun line ->
          match Obs.Trace.of_json_line line with
          | None -> Alcotest.failf "unparseable trace line: %s" line
          | Some e ->
              Alcotest.(check string)
                "line survives the round trip" line (Obs.Trace.to_json e))
        lines)

(* ------------------------------------------------------------------ *)
(* Null sink: no events constructed, no counters moved *)

let test_null_sink_silent () =
  Obs.Trace.with_sink Obs.Trace.Null (fun () ->
      Obs.Trace.reset_emitted ();
      Corechase.Obs.Metrics.reset ();
      ignore (Chase.Variants.core ~budget (Zoo.Staircase.kb ()));
      ignore (Treewidth.best_effort (Kb.facts (Zoo.Elevator.kb ())));
      Alcotest.(check int) "no events emitted" 0 (Obs.Trace.events_emitted ());
      List.iter
        (fun (name, v) ->
          Alcotest.(check int) (name ^ " untouched while disabled") 0 v)
        (Obs.Metrics.counters ()))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "obs.differential",
      [
        tc "applied events = report.steps (5 variants)" test_applied_equals_steps;
        tc "round events = run.rounds" test_rounds_and_lengths;
        tc "retract events = nonempty simplifications"
          test_retracts_match_simplifications;
        tc "metrics counters agree" test_metrics_agree;
        tc "stream engine events" test_stream_events;
        tc "egd engine events" test_egd_events;
        tc "hom backtrack event" test_hom_backtrack;
        tc "treewidth event" test_tw_events;
      ] );
    ( "obs.sinks",
      [
        tc "jsonl lines parse and round-trip" test_jsonl_sink;
        tc "null sink emits nothing" test_null_sink_silent;
      ] );
  ]
