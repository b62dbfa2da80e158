(* Tests for the datalog saturation engine (semi-naive), against naive
   saturation as the reference. *)

open Syntax

let atom p args = Atom.make p args

let chain_facts n =
  List.init n (fun i ->
      atom "e" [ Term.const (Printf.sprintf "n%d" i);
                 Term.const (Printf.sprintf "n%d" (i + 1)) ])

let tc_rules () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  [
    Rule.make ~name:"trans"
      ~body:[ atom "e" [ x; y ]; atom "e" [ y; z ] ]
      ~head:[ atom "e" [ x; z ] ]
      ();
  ]

let test_transitive_closure_count () =
  let n = 8 in
  let sat = Chase.Datalog.saturate (tc_rules ()) (Atomset.of_list (chain_facts n)) in
  (* closure of a chain of n edges: n(n+1)/2 pairs *)
  Alcotest.(check int) "closure size" (n * (n + 1) / 2) (Atomset.cardinal sat)

(* Naive saturation: re-derive everything from the whole instance each
   round until nothing is new. *)
let naive_saturate rules facts =
  let round inst =
    let idx = Homo.Instance.of_atomset inst in
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc h -> Atomset.union acc (Subst.apply h (Rule.head r)))
          acc
          (Homo.Hom.all (Rule.body r) idx))
      inst rules
  in
  let rec go inst =
    let inst' = round inst in
    if Atomset.equal inst' inst then inst else go inst'
  in
  go facts

let test_strategies_agree () =
  let facts = Atomset.of_list (chain_facts 6) in
  let naive = naive_saturate (tc_rules ()) facts in
  let seminaive = Chase.Datalog.saturate (tc_rules ()) facts in
  Alcotest.(check bool) "same fixpoint" true (Atomset.equal naive seminaive);
  List.iter
    (fun kb ->
      Alcotest.(check bool) "same fixpoint on random datalog" true
        (Atomset.equal
           (naive_saturate (Kb.rules kb) (Kb.facts kb))
           (Chase.Datalog.saturate (Kb.rules kb) (Kb.facts kb))))
    (Zoo.Randomkb.generate_many ~seed:47 ~count:10 Zoo.Randomkb.datalog)

let test_agrees_with_restricted_chase () =
  let kb =
    Kb.make ~facts:(Atomset.of_list (chain_facts 5)) ~rules:(tc_rules ())
  in
  let run = Chase.Variants.restricted kb in
  let chase_final =
    (Chase.Derivation.last run.Chase.Variants.derivation).Chase.Derivation.instance
  in
  let sat = Chase.Datalog.saturate (Kb.rules kb) (Kb.facts kb) in
  Alcotest.(check bool) "saturation = chase fixpoint" true
    (Atomset.equal chase_final sat)

let test_rejects_existentials () =
  let x = Term.fresh_var () and y = Term.fresh_var () in
  let r = Rule.make ~body:[ atom "p" [ x ] ] ~head:[ atom "q" [ x; y ] ] () in
  match Chase.Datalog.saturate [ r ] (Atomset.of_list [ atom "p" [ Term.const "a" ] ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "existential rules must be rejected"

let test_rounds_monotone () =
  let rs =
    Chase.Datalog.rounds (tc_rules ()) (Atomset.of_list (chain_facts 6))
  in
  let rec mono = function
    | a :: (b :: _ as rest) -> Atomset.subset a b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "rounds grow" true (mono rs);
  Alcotest.(check bool) "at least two rounds" true (List.length rs >= 2)

let test_random_datalog_agrees () =
  List.iter
    (fun kb ->
      let sat = Chase.Datalog.saturate (Kb.rules kb) (Kb.facts kb) in
      let run = Chase.Variants.restricted kb in
      let final =
        (Chase.Derivation.last run.Chase.Variants.derivation).Chase.Derivation.instance
      in
      Alcotest.(check bool) "agrees on random datalog" true
        (Atomset.equal sat final))
    (Zoo.Randomkb.generate_many ~seed:47 ~count:10 Zoo.Randomkb.datalog)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "datalog",
      [
        tc "transitive closure" test_transitive_closure_count;
        tc "strategies agree" test_strategies_agree;
        tc "agrees with restricted chase" test_agrees_with_restricted_chase;
        tc "rejects existentials" test_rejects_existentials;
        tc "rounds monotone" test_rounds_monotone;
        tc "random datalog agrees" test_random_datalog_agrees;
      ] );
  ]
