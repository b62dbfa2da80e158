(* Cross-library integration tests: seeded random KBs driven through the
   whole pipeline — chase variants, derivation validation, robust
   sequences, certificates, class probes — checking the paper's invariants
   on arbitrary inputs rather than hand-picked ones. *)

open Syntax

let tiny = { Chase.Variants.max_steps = 25; max_atoms = 400 }

let kb_testable_name kb =
  Fmt.str "%d facts / %d rules" (Atomset.cardinal (Kb.facts kb))
    (List.length (Kb.rules kb))

(* ------------------------------------------------------------------ *)
(* Random KB generator sanity *)

let test_randomkb_deterministic () =
  let kb1 = Zoo.Randomkb.generate ~seed:42 Zoo.Randomkb.default in
  let kb2 = Zoo.Randomkb.generate ~seed:42 Zoo.Randomkb.default in
  Alcotest.(check bool) "same facts" true
    (Atomset.equal (Kb.facts kb1) (Kb.facts kb2));
  Alcotest.(check int) "same rule count" (List.length (Kb.rules kb1))
    (List.length (Kb.rules kb2));
  (* rule bodies/heads isomorphic (variables are fresh per call) *)
  List.iter2
    (fun r1 r2 ->
      Alcotest.(check bool) "rule bodies isomorphic" true
        (Homo.Morphism.isomorphic (Rule.body r1) (Rule.body r2)))
    (Kb.rules kb1) (Kb.rules kb2)

let test_randomkb_seeds_differ () =
  let kb1 = Zoo.Randomkb.generate ~seed:1 Zoo.Randomkb.default in
  let kb2 = Zoo.Randomkb.generate ~seed:2 Zoo.Randomkb.default in
  Alcotest.(check bool) "different seeds, different facts (very likely)" true
    (not (Atomset.equal (Kb.facts kb1) (Kb.facts kb2)))

let test_randomkb_well_formed () =
  List.iter
    (fun kb ->
      match Schema.of_kb kb with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: %s" (kb_testable_name kb) m)
    (Zoo.Randomkb.generate_many ~seed:7 ~count:20 Zoo.Randomkb.default)

let test_randomkb_datalog_has_no_existentials () =
  List.iter
    (fun kb ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "datalog" true (Rule.is_datalog r))
        (Kb.rules kb))
    (Zoo.Randomkb.generate_many ~seed:3 ~count:10 Zoo.Randomkb.datalog)

(* ------------------------------------------------------------------ *)
(* Pipeline invariants over random KBs *)

let over_random_kbs ?(count = 12) ?(cfg = Zoo.Randomkb.default) ~seed f =
  List.iteri
    (fun i kb -> f i kb)
    (Zoo.Randomkb.generate_many ~seed ~count cfg)

let test_derivations_validate () =
  over_random_kbs ~seed:11 (fun i kb ->
      List.iter
        (fun run ->
          match Chase.Derivation.validate run.Chase.Variants.derivation with
          | Ok () -> ()
          | Error m -> Alcotest.failf "kb %d: %s" i m)
        [
          Chase.Variants.restricted ~budget:tiny kb;
          Chase.Variants.core ~budget:tiny kb;
          Chase.Variants.frugal ~budget:tiny kb;
        ])

let test_core_chase_instances_are_cores_random () =
  over_random_kbs ~seed:13 ~count:8 (fun i kb ->
      let run = Chase.Variants.core ~budget:tiny kb in
      List.iter
        (fun st ->
          Alcotest.(check bool)
            (Printf.sprintf "kb %d step %d is a core" i st.Chase.Derivation.index)
            true
            (Homo.Core.is_core st.Chase.Derivation.instance))
        (Chase.Derivation.steps run.Chase.Variants.derivation))

let test_robust_invariants_random () =
  over_random_kbs ~seed:17 ~count:10 (fun i kb ->
      let run = Chase.Variants.core ~budget:tiny kb in
      let r = Corechase.Robust.of_derivation run.Chase.Variants.derivation in
      match Corechase.Robust.check_invariants r with
      | Ok () -> ()
      | Error m -> Alcotest.failf "kb %d: %s" i m)

let test_robust_invariants_random_frugal () =
  over_random_kbs ~seed:29 ~count:8 (fun i kb ->
      let run = Chase.Variants.frugal ~budget:tiny kb in
      let r = Corechase.Robust.of_derivation run.Chase.Variants.derivation in
      match Corechase.Robust.check_invariants r with
      | Ok () -> ()
      | Error m -> Alcotest.failf "kb %d (frugal): %s" i m)

(* ------------------------------------------------------------------ *)
(* Robust aggregation: the forward recurrence against the definitions *)

(* Set equality, not isomorphism: at every prefix j the aggregation of the
   length-(j+1) derivation prefix equals the top-down fold ⋃ τ̄_i^j(G_i);
   at every i [aggregation_upto] equals ⋃_{j≤i} τ̄_j^K(G_j); and
   [stable_aggregation] picks the same atomset as its definition. *)
let check_robust_law name d =
  let module R = Corechase.Robust in
  let module Ref = Reference.Robust_ref in
  let r = R.of_derivation d in
  let steps = Chase.Derivation.steps d in
  let agrees what ok =
    Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true ok
  in
  List.iteri
    (fun j _ ->
      let prefix =
        Chase.Derivation.of_steps (Chase.Derivation.kb d)
          (List.filteri (fun i _ -> i <= j) steps)
      in
      agrees
        (Printf.sprintf "D⊛_%d forward = top-down" j)
        (Atomset.equal
           (R.aggregation (R.of_derivation prefix))
           (Ref.prefix_aggregation r j));
      agrees
        (Printf.sprintf "aggregation_upto %d" j)
        (Atomset.equal (R.aggregation_upto r j) (Ref.aggregation_upto r j)))
    steps;
  agrees "stable_aggregation"
    (Atomset.equal (R.stable_aggregation r) (Ref.stable_aggregation r))

let staircase_run cadence =
  Chase.Variants.core ~cadence
    ~budget:{ Chase.Variants.max_steps = 40; max_atoms = 2000 }
    (Zoo.Staircase.kb ())

let test_robust_law_staircase () =
  check_robust_law "staircase/every-application"
    (staircase_run Chase.Variants.Every_application).Chase.Variants.derivation;
  check_robust_law "staircase/every-round"
    (staircase_run Chase.Variants.Every_round).Chase.Variants.derivation

let test_robust_law_elevator () =
  let run =
    Chase.Variants.core
      ~budget:{ Chase.Variants.max_steps = 30; max_atoms = 2000 }
      (Zoo.Elevator.kb ())
  in
  check_robust_law "elevator" run.Chase.Variants.derivation

let test_robust_law_random () =
  over_random_kbs ~seed:17 ~count:10 (fun i kb ->
      check_robust_law (Printf.sprintf "kb %d (core)" i)
        (Chase.Variants.core ~budget:tiny kb).Chase.Variants.derivation);
  over_random_kbs ~seed:29 ~count:8 (fun i kb ->
      check_robust_law (Printf.sprintf "kb %d (frugal)" i)
        (Chase.Variants.frugal ~budget:tiny kb).Chase.Variants.derivation)

(* No timing: one [check_invariants] call computes a fixed number of
   aggregations whatever the prefix length, so a per-prefix loop (which
   would add 2(n-1) on an n-step prefix) cannot come back unnoticed. *)
let test_check_invariants_aggregations_constant () =
  let added steps =
    let run =
      Chase.Variants.core
        ~budget:{ Chase.Variants.max_steps = steps; max_atoms = 100_000 }
        (Zoo.Staircase.kb ())
    in
    let r = Corechase.Robust.of_derivation run.Chase.Variants.derivation in
    let count () = Obs.Metrics.counter_value "robust.aggregations" in
    let was = !Obs.Metrics.enabled in
    Obs.Metrics.enabled := true;
    let before = count () in
    let res =
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.enabled := was)
        (fun () -> Corechase.Robust.check_invariants r)
    in
    (match res with Ok () -> () | Error m -> Alcotest.fail m);
    count () - before
  in
  let a40 = added 40 and a80 = added 80 in
  Alcotest.(check int) "same count at 40 and 80 steps" a40 a80;
  Alcotest.(check bool) "at most 2 aggregations per check" true (a40 <= 2)

let test_terminating_variants_agree_random () =
  (* on datalog (always terminating), all Definition-1 variants produce
     hom-equivalent results *)
  over_random_kbs ~seed:19 ~count:10 ~cfg:Zoo.Randomkb.datalog (fun i kb ->
      let final v =
        let run = v kb in
        Alcotest.(check bool)
          (Printf.sprintf "kb %d terminates" i)
          true
          (run.Chase.Variants.outcome = Chase.Variants.Fixpoint);
        (Chase.Derivation.last run.Chase.Variants.derivation)
          .Chase.Derivation.instance
      in
      let rc = final (Chase.Variants.restricted ?budget:None) in
      let cc = final (Chase.Variants.core ?budget:None) in
      Alcotest.(check bool)
        (Printf.sprintf "kb %d results hom-equivalent" i)
        true
        (Homo.Morphism.hom_equivalent rc cc))

let test_datalog_fes_probe_random () =
  over_random_kbs ~seed:23 ~count:8 ~cfg:Zoo.Randomkb.datalog (fun i kb ->
      match
        Corechase.Probes.core_chase_terminates
          ~budget:{ Chase.Variants.max_steps = 2000; max_atoms = 20000 }
          kb
      with
      | Corechase.Probes.Terminates _ -> ()
      | Corechase.Probes.No_verdict _ ->
          Alcotest.failf "kb %d: datalog chase must terminate" i)

(* ------------------------------------------------------------------ *)
(* Certificates *)

let test_certificate_roundtrip () =
  let kb = Zoo.Classic.transitive_closure () in
  let x = Term.fresh_var ~hint:"X" () in
  let q =
    Kb.Query.make [ Atom.make "e" [ Term.const "a"; x ]; Atom.make "e" [ x; Term.const "d" ] ]
  in
  match Corechase.Certificate.find kb q with
  | None -> Alcotest.fail "entailed query must yield a certificate"
  | Some cert -> (
      match Corechase.Certificate.check kb q cert with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

let test_certificate_rejects_wrong_kb () =
  let kb = Zoo.Classic.transitive_closure () in
  let x = Term.fresh_var ~hint:"X" () in
  let q = Kb.Query.make [ Atom.make "e" [ Term.const "a"; x ] ] in
  match Corechase.Certificate.find kb q with
  | None -> Alcotest.fail "certificate must exist"
  | Some cert ->
      let other = Zoo.Classic.bts_not_fes () in
      Alcotest.(check bool) "rejected against another KB" true
        (Result.is_error (Corechase.Certificate.check other q cert))

let test_certificate_rejects_wrong_query () =
  let kb = Zoo.Classic.transitive_closure () in
  let x = Term.fresh_var ~hint:"X" () in
  let q = Kb.Query.make [ Atom.make "e" [ Term.const "a"; x ] ] in
  match Corechase.Certificate.find kb q with
  | None -> Alcotest.fail "certificate must exist"
  | Some cert ->
      let q' = Kb.Query.make [ Atom.make "e" [ x; Term.const "a" ] ] in
      Alcotest.(check bool) "rejected for a different query" true
        (Result.is_error (Corechase.Certificate.check kb q' cert))

let test_certificate_none_when_not_entailed () =
  let kb = Zoo.Classic.transitive_closure () in
  let q = Kb.Query.make [ Atom.make "e" [ Term.const "d"; Term.const "a" ] ] in
  Alcotest.(check bool) "no certificate" true
    (Corechase.Certificate.find kb q = None)

let test_certificates_on_random_entailed_queries () =
  (* pick a fact of the chase result as a (trivially entailed) query *)
  over_random_kbs ~seed:31 ~count:8 ~cfg:Zoo.Randomkb.datalog (fun i kb ->
      let run = Chase.Variants.restricted kb in
      let final =
        (Chase.Derivation.last run.Chase.Variants.derivation)
          .Chase.Derivation.instance
      in
      match Atomset.to_list final with
      | [] -> ()
      | at :: _ -> (
          let q = Kb.Query.make [ at ] in
          match Corechase.Certificate.find kb q with
          | None -> Alcotest.failf "kb %d: fact of the result must certify" i
          | Some cert -> (
              match Corechase.Certificate.check kb q cert with
              | Ok () -> ()
              | Error m -> Alcotest.failf "kb %d: %s" i m)))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "integration.randomkb",
      [
        tc "deterministic" test_randomkb_deterministic;
        tc "seeds differ" test_randomkb_seeds_differ;
        tc "well-formed" test_randomkb_well_formed;
        tc "datalog config" test_randomkb_datalog_has_no_existentials;
      ] );
    ( "integration.pipeline",
      [
        tc "derivations validate" test_derivations_validate;
        tc "core chase yields cores" test_core_chase_instances_are_cores_random;
        tc "robust invariants (core)" test_robust_invariants_random;
        tc "robust invariants (frugal)" test_robust_invariants_random_frugal;
        tc "terminating variants agree" test_terminating_variants_agree_random;
        tc "datalog fes probes" test_datalog_fes_probe_random;
      ] );
    ( "integration.robust",
      [
        tc "forward = definitions: staircase" test_robust_law_staircase;
        tc "forward = definitions: elevator" test_robust_law_elevator;
        tc "forward = definitions: random KBs" test_robust_law_random;
        tc "check_invariants aggregation count" test_check_invariants_aggregations_constant;
      ] );
    ( "integration.certificates",
      [
        tc "roundtrip" test_certificate_roundtrip;
        tc "rejects wrong KB" test_certificate_rejects_wrong_kb;
        tc "rejects wrong query" test_certificate_rejects_wrong_query;
        tc "absent when not entailed" test_certificate_none_when_not_entailed;
        tc "random entailed queries" test_certificates_on_random_entailed_queries;
      ] );
  ]
