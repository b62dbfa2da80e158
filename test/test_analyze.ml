(* The termination analyzer and the engine router, proven against the
   generated rule zoo (DESIGN.md §13):

   (a) the zoo is honest: every class a family declares shows up as a
       positive flag in the Rclasses report, and every declared chase
       behaviour matches an actual restricted-chase run;
   (b) certificate soundness: whenever the analyzer certifies
       termination (verdict ≥ terminates-restricted) — on any family or
       mutant, at any scale — the restricted chase really reaches a
       fixpoint and its core is isomorphic to the core-chase result,
       under jobs=1 and jobs=4;
   (c) no false certificates: no case whose restricted chase diverges
       is ever certified, mutants included;
   (d) router differential: the engine [Analyze.route] picks agrees
       with the core engine — final instances isomorphic up to core on
       terminating cases, and entailment verdicts never contradict on
       per-predicate Boolean queries over the whole corpus;
   (e) the routing policy itself is pinned: existential-free →
       semi-naive datalog, certified → restricted, EGDs or no
       certificate → core;
   (f) the lazy report agrees with the eager reference fold
       ([Reference.Analyze_ref]) on the whole zoo and on seeded random
       KBs — forced trail and JSON byte for byte, verdict, route — and
       routing runs only the probes it needs ([analyze.probes]). *)

open Syntax

(* Every Terminating zoo case at the scales below reaches its fixpoint
   well inside this budget; on diverging cases it caps the wasted work
   (restricted steps on a growing instance get expensive fast, so the
   cap keeps the whole corpus sweep quick). *)
let budget = { Chase.Variants.max_steps = 120; max_atoms = 3_000 }

let scales = [ 1; 2; 4 ]

let all_cases ~scale =
  Zoo.Families.families ~scale ()
  @ List.map
      (fun (m : Zoo.Families.mutant) -> m.Zoo.Families.case)
      (Zoo.Families.mutants ~scale ())

let flag_of_klass (c : Rclasses.report) = function
  | Zoo.Families.Datalog -> c.Rclasses.datalog
  | Zoo.Families.Weakly_acyclic -> c.Rclasses.weakly_acyclic
  | Zoo.Families.Jointly_acyclic -> c.Rclasses.jointly_acyclic
  | Zoo.Families.Acyclic_grd -> c.Rclasses.agrd_sound
  | Zoo.Families.Linear -> c.Rclasses.linear
  | Zoo.Families.Guarded -> c.Rclasses.guarded
  | Zoo.Families.Frontier_guarded -> c.Rclasses.frontier_guarded

(* ------------------------------------------------------------------ *)
(* (a) the zoo is honest *)

let test_declared_classes_hold () =
  List.iter
    (fun scale ->
      List.iter
        (fun (c : Zoo.Families.case) ->
          let report = Rclasses.analyze (Kb.rules c.Zoo.Families.kb) in
          List.iter
            (fun k ->
              Alcotest.(check bool)
                (Printf.sprintf "%s is %s" c.Zoo.Families.name
                   (Zoo.Families.klass_name k))
                true
                (flag_of_klass report k))
            c.Zoo.Families.classes)
        (Zoo.Families.families ~scale ()))
    scales

let test_declared_behaviour_holds () =
  List.iter
    (fun scale ->
      List.iter
        (fun (c : Zoo.Families.case) ->
          let run = Chase.run ~budget Chase.Restricted c.Zoo.Families.kb in
          let expected =
            match c.Zoo.Families.behaviour with
            | Zoo.Families.Terminating -> true
            | Zoo.Families.Nonterminating -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s restricted chase terminates" c.Zoo.Families.name)
            expected (Resilience.terminated run.Chase.outcome))
        (all_cases ~scale))
    scales

(* ------------------------------------------------------------------ *)
(* (b) certificate soundness, jobs ∈ {1, 4} *)

let soundness_at ~jobs () =
  Par.with_jobs jobs (fun () ->
      List.iter
        (fun scale ->
          List.iter
            (fun (c : Zoo.Families.case) ->
              let report = Analyze.analyze ~budget c.Zoo.Families.kb in
              if Analyze.certified report then begin
                let restricted =
                  Chase.run ~budget Chase.Restricted c.Zoo.Families.kb
                in
                Alcotest.(check bool)
                  (Printf.sprintf
                     "%s: certificate implies restricted fixpoint"
                     c.Zoo.Families.name)
                  true (Resilience.terminated restricted.Chase.outcome);
                let core = Chase.run ~budget Chase.Core c.Zoo.Families.kb in
                Alcotest.(check bool)
                  (Printf.sprintf "%s: core chase also terminates"
                     c.Zoo.Families.name)
                  true (Resilience.terminated core.Chase.outcome);
                Alcotest.(check bool)
                  (Printf.sprintf
                     "%s: core(restricted result) ≅ core-chase result"
                     c.Zoo.Families.name)
                  true
                  (Homo.Morphism.isomorphic
                     (Homo.Core.of_atomset restricted.Chase.final)
                     core.Chase.final)
              end)
            (all_cases ~scale))
        scales)

(* ------------------------------------------------------------------ *)
(* (c) no false certificates on diverging cases *)

let test_no_false_certificates () =
  List.iter
    (fun scale ->
      List.iter
        (fun (c : Zoo.Families.case) ->
          if c.Zoo.Families.behaviour = Zoo.Families.Nonterminating then
            let report = Analyze.analyze ~budget c.Zoo.Families.kb in
            Alcotest.(check bool)
              (Printf.sprintf "%s (diverging) is not certified"
                 c.Zoo.Families.name)
              false (Analyze.certified report))
        (all_cases ~scale))
    scales

let test_termination_mutants_not_certified () =
  (* the near-miss mutants whose single edit destroys termination are
     the designed traps: the certificate must never survive the edit *)
  List.iter
    (fun scale ->
      List.iter
        (fun (m : Zoo.Families.mutant) ->
          match m.Zoo.Families.broken with
          | Zoo.Families.Termination ->
              let report = Analyze.analyze ~budget m.Zoo.Families.case.Zoo.Families.kb in
              Alcotest.(check bool)
                (Printf.sprintf "%s not falsely certified"
                   m.Zoo.Families.case.Zoo.Families.name)
                false (Analyze.certified report);
              Alcotest.(check bool)
                (Printf.sprintf "%s parent is certified"
                   m.Zoo.Families.parent.Zoo.Families.name)
                true
                (Analyze.certified (Analyze.analyze ~budget m.Zoo.Families.parent.Zoo.Families.kb))
          | Zoo.Families.Klass _ -> ())
        (Zoo.Families.mutants ~scale ()))
    scales

(* ------------------------------------------------------------------ *)
(* (d) router differential: routed engine ≡ core engine *)

let preds_of_kb kb =
  let add acc (p, k) = if List.mem (p, k) acc then acc else (p, k) :: acc in
  let from_rules =
    List.fold_left
      (fun acc r -> List.fold_left add acc (Rule.preds r))
      [] (Kb.rules kb)
  in
  List.sort compare
    (Atomset.fold
       (fun a acc -> add acc (Atom.pred a, Atom.arity a))
       (Kb.facts kb) from_rules)

let boolean_query (p, k) =
  Kb.Query.make ~name:p
    [ Atom.make p (List.init k (fun _ -> Term.fresh_var ~hint:"q" ())) ]

let contradictory a b =
  match (a, b) with
  | Corechase.Entailment.Entailed, Corechase.Entailment.Not_entailed
  | Corechase.Entailment.Not_entailed, Corechase.Entailment.Entailed ->
      true
  | _ -> false

let routed_variant = function
  (* the CLI mapping: the datalog engine has no derivation to probe, so
     entailment falls back to the restricted chase it agrees with *)
  | Chase.Engine_datalog | Chase.Engine_restricted -> `Restricted
  | Chase.Engine_core -> `Core

let test_routed_engine_agrees_with_core () =
  List.iter
    (fun jobs ->
      Par.with_jobs jobs (fun () ->
          List.iter
            (fun (c : Zoo.Families.case) ->
              let kb = c.Zoo.Families.kb in
              let report = Analyze.analyze ~budget kb in
              let choice, _reason = Analyze.route_of_report kb report in
              let routed = Chase.run_engine ~budget choice kb in
              let core = Chase.run ~budget Chase.Core kb in
              if
                Resilience.terminated routed.Chase.outcome
                && Resilience.terminated core.Chase.outcome
              then
                Alcotest.(check bool)
                  (Printf.sprintf "%s jobs=%d: routed ≡ core up to core"
                     c.Zoo.Families.name jobs)
                  true
                  (Homo.Morphism.isomorphic
                     (Homo.Core.of_atomset routed.Chase.final)
                     core.Chase.final))
            (all_cases ~scale:3)))
    [ 1; 4 ]

let test_routed_entailment_agrees_with_core () =
  List.iter
    (fun (c : Zoo.Families.case) ->
      let kb = c.Zoo.Families.kb in
      let variant = routed_variant (Analyze.route ~budget kb) in
      let terminating = c.Zoo.Families.behaviour = Zoo.Families.Terminating in
      List.iter
        (fun pk ->
          let q = boolean_query pk in
          (* via_chase, not decide: the countermodel fallback is shared
             by both variants anyway, and skipping it keeps the sweep
             over the diverging cases cheap *)
          let routed = Corechase.Entailment.via_chase ~variant ~budget kb q in
          let reference =
            Corechase.Entailment.via_chase ~variant:`Core ~budget kb q
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s ⊨ %s? verdicts never contradict"
               c.Zoo.Families.name (fst pk))
            false
            (contradictory routed reference);
          (* on terminating cases both chases reach a universal model
             within budget, so the verdicts are definite and equal *)
          if terminating then
            Alcotest.(check string)
              (Printf.sprintf "%s ⊨ %s? verdicts equal" c.Zoo.Families.name
                 (fst pk))
              (Fmt.str "%a" Corechase.Entailment.pp_verdict reference)
              (Fmt.str "%a" Corechase.Entailment.pp_verdict routed))
        (preds_of_kb kb))
    (all_cases ~scale:3)

(* ------------------------------------------------------------------ *)
(* (e) the routing policy is pinned *)

let route_name kb = Chase.engine_name (Analyze.route ~budget kb)

let find_case name =
  List.find
    (fun (c : Zoo.Families.case) -> c.Zoo.Families.name = name)
    (all_cases ~scale:3)

let test_routing_policy_pinned () =
  let expect name engine =
    Alcotest.(check string)
      (Printf.sprintf "route(%s)" name)
      engine
      (route_name (find_case name).Zoo.Families.kb)
  in
  expect "datalog-clique-3" "datalog";
  expect "wa-ladder-3" "restricted";
  expect "linear-twist-3" "restricted";
  expect "braked-walk-3" "restricted";
  expect "fg-braid-3" "core";
  expect "nonterm-loop-3" "core";
  expect "linear-twist-3-mut" "core"

let test_egds_route_to_core () =
  let x = Term.fresh_var ~hint:"x" ()
  and y = Term.fresh_var ~hint:"y" ()
  and z = Term.fresh_var ~hint:"z" () in
  let kb =
    Kb.make
      ~facts:
        (Atomset.of_list
           [
             Atom.make "p" [ Term.const "a"; Term.const "b" ];
             Atom.make "p" [ Term.const "a"; Term.const "c" ];
           ])
      ~rules:[]
    |> Kb.with_egds
         [ Egd.make ~body:[ Atom.make "p" [ x; y ]; Atom.make "p" [ x; z ] ] y z ]
  in
  let report = Analyze.analyze ~budget kb in
  Alcotest.(check string) "EGD KB verdict capped at unknown" "unknown"
    (Analyze.verdict_name (Analyze.verdict report));
  Alcotest.(check bool) "egds:present criterion recorded" true
    (List.exists
       (fun (c : Analyze.criterion) -> c.Analyze.name = "egds:present" && c.holds)
       (Analyze.criteria report));
  Alcotest.(check string) "EGD KB routes to core" "core" (route_name kb)

let test_verdict_lattice () =
  Alcotest.(check (list int)) "verdict ranks are the chain 0..3"
    [ 0; 1; 2; 3 ]
    (List.map Analyze.verdict_rank
       Analyze.[ Unknown; Bts; Terminates_restricted; Terminates_all ])

(* ------------------------------------------------------------------ *)
(* (f) lazy report ≡ eager reference; routing stops at the first
   criterion that decides *)

module Ref = Reference.Analyze_ref

(* the seeds the props law "analyzer respects the class lattice" draws
   first, with its budget *)
let random_budget = { Chase.Variants.max_steps = 60; max_atoms = 1_500 }

let random_kbs n =
  let rng =
    Random.State.make
      [| 0x5eed; Hashtbl.hash "analyzer respects the class lattice" |]
  in
  let rec go i =
    if i = n then []
    else
      let seed = Random.State.int rng 1_000_000 in
      let kb = Zoo.Randomkb.generate ~seed Zoo.Randomkb.default in
      (Printf.sprintf "random seed %d" seed, kb) :: go (i + 1)
  in
  go 0

let rank_certified_reason =
  "termination certified (terminates-restricted): restricted chase suffices"

(* Every accessor is read from a cold report, so each is checked with
   exactly the probes it forces itself. *)
let agrees_with_reference ~budget (name, kb) =
  let reference = Ref.analyze ~budget kb in
  let fresh () = Analyze.analyze ~budget kb in
  let ref_choice, ref_reason = Ref.route_of_report kb reference in
  let routed = fresh () in
  let choice, reason = Analyze.route_of_report kb routed in
  Alcotest.(check string) (name ^ ": route")
    (Chase.engine_name ref_choice) (Chase.engine_name choice);
  (* the one permitted difference: a route certified by the rank probe
     alone does not run the skolem probe, so it cannot name
     terminates-all *)
  if reason <> ref_reason then begin
    let holds n =
      List.exists
        (fun (c : Analyze.criterion) -> c.Analyze.name = n && c.holds)
        reference.Ref.criteria
    in
    Alcotest.(check bool)
      (name ^ ": certified by the rank probe alone")
      true
      (holds "ranks:instance-fixpoint"
      && not
           (List.exists holds
              [ "classes:datalog"; "classes:acyclicity"; "grd:datalog-cycles" ]));
    Alcotest.(check (pair string string))
      (name ^ ": route reason without the skolem probe")
      ("terminates-all", rank_certified_reason)
      (Analyze.verdict_name reference.Ref.verdict, reason)
  end;
  Alcotest.(check string) (name ^ ": verdict")
    (Analyze.verdict_name reference.Ref.verdict)
    (Analyze.verdict_name (Analyze.verdict (fresh ())));
  Alcotest.(check bool) (name ^ ": certified") (Ref.certified reference)
    (Analyze.certified (fresh ()));
  let trail = Fmt.str "%a" Ref.pp_report reference in
  Alcotest.(check string) (name ^ ": trail") trail
    (Fmt.str "%a" Analyze.pp_report (fresh ()));
  Alcotest.(check string) (name ^ ": trail after routing") trail
    (Fmt.str "%a" Analyze.pp_report routed);
  Alcotest.(check string) (name ^ ": json") (Ref.to_json kb reference)
    (Analyze.to_json kb (fresh ()))

let named_cases ~scale =
  List.map (fun (c : Zoo.Families.case) -> (c.Zoo.Families.name, c.Zoo.Families.kb))
    (all_cases ~scale)

(* the tight budget stops the rank probe on braked-walk while its skolem
   probe still reaches a fixpoint: there the skolem probe, last in cost
   order, is what certifies *)
let test_zoo_agrees_with_reference () =
  let tight = { Chase.Variants.max_steps = 5; max_atoms = 3_000 } in
  List.iter
    (fun budget ->
      List.iter
        (fun scale ->
          List.iter (agrees_with_reference ~budget) (named_cases ~scale))
        scales)
    [ budget; tight ]

let test_random_agrees_with_reference () =
  List.iter (agrees_with_reference ~budget:random_budget) (random_kbs 100)

(* serve's ANALYZE (default budget) prints the reference trail and
   route line byte for byte *)
let test_serve_analyze_agrees_with_reference () =
  List.iter
    (fun name ->
      let kb = (find_case name).Zoo.Families.kb in
      let text =
        Fmt.str "%a" Dlgp.print_document
          { Dlgp.facts = Kb.facts kb; rules = Kb.rules kb; egds = Kb.egds kb;
            queries = []; constraints = [] }
      in
      let kb =
        match Dlgp.parse_kb text with
        | Ok kb -> kb
        | Error e -> Alcotest.failf "%s: %a" name Dlgp.pp_error e
      in
      let reference = Ref.analyze kb in
      let choice, reason = Ref.route_of_report kb reference in
      let expected =
        Fmt.str "%a@.route: %s (%s)" Ref.pp_report reference
          (Chase.engine_name choice) reason
      in
      let l = Server.Loopback.create () in
      let request s =
        match Server.Protocol.parse_request s with
        | Ok r -> Server.Loopback.request l r
        | Error e -> Alcotest.failf "%s: %s" s e
      in
      ignore (request "OPEN s");
      ignore (request ("LOAD s inline\n" ^ text));
      let data =
        List.filter_map
          (fun (f : Server.Protocol.frame) ->
            if f.Server.Protocol.kind = Server.Protocol.K_data then
              Some f.Server.Protocol.payload
            else None)
          (request "ANALYZE s")
      in
      Alcotest.(check string) (name ^ ": serve ANALYZE") expected
        (String.concat "" data))
    [ "datalog-clique-3"; "wa-ladder-3"; "linear-twist-3"; "braked-walk-3";
      "fg-braid-3-mut" ]

let probes_of f =
  Obs.Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.enabled := false) @@ fun () ->
  let before = Obs.Metrics.counter_value "analyze.probes" in
  let x = f () in
  (x, Obs.Metrics.counter_value "analyze.probes" - before)

let test_routing_probe_counts () =
  List.iter
    (fun (name, kb) ->
      let c = Rclasses.analyze (Kb.rules kb) in
      if
        c.Rclasses.datalog || c.Rclasses.weakly_acyclic
        || c.Rclasses.jointly_acyclic || c.Rclasses.agrd_sound
      then
        Alcotest.(check int) (name ^ ": routing runs no probe") 0
          (snd (probes_of (fun () -> Analyze.route ~budget kb))))
    (named_cases ~scale:3);
  let twist = (find_case "linear-twist-3").Zoo.Families.kb in
  let (choice, reason), n =
    probes_of (fun () ->
        Analyze.route_of_report twist (Analyze.analyze ~budget twist))
  in
  Alcotest.(check string) "twist routes restricted" "restricted"
    (Chase.engine_name choice);
  Alcotest.(check string) "twist reason" rank_certified_reason reason;
  Alcotest.(check int) "routing twist runs the rank probe only" 1 n;
  Alcotest.(check int) "the full trail on twist runs 4 probes" 4
    (snd
       (probes_of (fun () ->
            ignore (Analyze.criteria (Analyze.analyze ~budget twist)))))

let suites =
  [
    ( "analyze.zoo",
      [
        Alcotest.test_case "declared classes hold" `Quick
          test_declared_classes_hold;
        Alcotest.test_case "declared behaviours hold" `Quick
          test_declared_behaviour_holds;
      ] );
    ( "analyze.soundness",
      [
        Alcotest.test_case "certificates sound (jobs=1)" `Quick
          (soundness_at ~jobs:1);
        Alcotest.test_case "certificates sound (jobs=4)" `Quick
          (soundness_at ~jobs:4);
        Alcotest.test_case "no false certificates on diverging cases" `Quick
          test_no_false_certificates;
        Alcotest.test_case "termination mutants never certified" `Quick
          test_termination_mutants_not_certified;
      ] );
    ( "analyze.route",
      [
        Alcotest.test_case "routed engine ≡ core engine" `Quick
          test_routed_engine_agrees_with_core;
        Alcotest.test_case "routed entailment ≡ core entailment" `Quick
          test_routed_entailment_agrees_with_core;
        Alcotest.test_case "routing policy pinned" `Quick
          test_routing_policy_pinned;
        Alcotest.test_case "EGDs route to core" `Quick test_egds_route_to_core;
        Alcotest.test_case "verdict lattice ranks" `Quick test_verdict_lattice;
      ] );
    ( "analyze.reference",
      [
        Alcotest.test_case "zoo agrees with the eager fold" `Quick
          test_zoo_agrees_with_reference;
        Alcotest.test_case "random KBs agree with the eager fold" `Quick
          test_random_agrees_with_reference;
        Alcotest.test_case "routing runs only the probes it needs" `Quick
          test_routing_probe_counts;
        Alcotest.test_case "serve ANALYZE agrees with the eager fold" `Quick
          test_serve_analyze_agrees_with_reference;
      ] );
  ]
