(* Entailment from the final chase element (Proposition 1).

   [Corechase.Entailment] answers every chase-based entry point from the
   final derivation element.  The law here diffs it, byte for byte
   through the [Queryeval] renderers, against [Reference.Entail_ref],
   which probes every element of the derivation: terminating zoo
   families and their near-miss mutants at scales 2–3, datalog random
   KBs, and the diverging staircase and elevator, under both variants
   and under budgets that reach a fixpoint, stop on steps, and stop on
   atoms.  A gate then pins "one chase per document" by counting engine
   rounds. *)

open Syntax
module E = Corechase.Entailment
module Q = Server.Queryeval
module R = Reference.Entail_ref

let tc name f = Alcotest.test_case name `Quick f

(* Under an ambient CORECHASE_FAULTS spec a one-shot fault may fire in
   one side of a comparison and not the other (the two sides make
   different numbers of hom calls).  The fault fires once, so a
   disagreement is recomputed once when a spec is armed; without one,
   the first answer stands. *)
let agree label ~expect ~got =
  let e = expect () and g = got () in
  let e, g =
    if e <> g && Resilience.Fault.active () then (expect (), got ()) else (e, g)
  in
  Alcotest.(check string) label e g

let max_domain = 2

(* ------------------------------------------------------------------ *)
(* Inputs *)

let preds = Test_analyze.preds_of_kb

let vars k = List.init k (fun _ -> Term.fresh_var ~hint:"Q" ())

(* per predicate: the open atom (usually entailed) and, for a predicate
   with arguments, its diagonal (usually not, so the countermodel side
   runs) and the open atom answering its first position *)
let queries kb =
  List.concat_map
    (fun (p, k) ->
      let open_q = Kb.Query.make [ Atom.make p (vars k) ] in
      if k = 0 then [ open_q ]
      else
        let x = Term.fresh_var ~hint:"D" () and ys = vars k in
        [
          open_q;
          Kb.Query.make [ Atom.make p (List.init k (fun _ -> x)) ];
          Kb.Query.make ~answers:[ List.hd ys ] [ Atom.make p ys ];
        ])
    (preds kb)

let ucqs kb =
  let diags =
    List.filter_map
      (fun (p, k) ->
        if k = 0 then None
        else
          let x = Term.fresh_var ~hint:"U" () in
          Some (Kb.Query.make [ Atom.make p (List.init k (fun _ -> x)) ]))
      (preds kb)
  in
  let opens =
    List.map (fun (p, k) -> Kb.Query.make [ Atom.make p (vars k) ]) (preds kb)
  in
  List.filter_map
    (function [] -> None | ds -> Some (Ucq.make ds))
    [ diags; List.filteri (fun i _ -> i < 2) (List.rev opens) ]

let budgets kb =
  let facts = Atomset.cardinal (Kb.facts kb) in
  [
    (* a fixpoint on every terminating case; the mutants stop on steps *)
    ("fixpoint", { Chase.Variants.max_steps = 40; max_atoms = 5_000 });
    ("steps", { Chase.Variants.max_steps = 3; max_atoms = 5_000 });
    ("atoms", { Chase.Variants.max_steps = 40; max_atoms = facts + 3 });
  ]

let family_cases =
  let case (c : Zoo.Families.case) = (c.Zoo.Families.name, c.Zoo.Families.kb) in
  let terminating (c : Zoo.Families.case) =
    c.Zoo.Families.behaviour = Zoo.Families.Terminating
  in
  List.concat_map
    (fun scale ->
      List.filter_map
        (fun c -> if terminating c then Some (case c) else None)
        (Zoo.Families.families ~scale ())
      @ List.filter_map
          (fun (m : Zoo.Families.mutant) ->
            if terminating m.Zoo.Families.parent then
              Some (case m.Zoo.Families.case)
            else None)
          (Zoo.Families.mutants ~scale ()))
    [ 2; 3 ]

let random_cases =
  let config =
    {
      Zoo.Randomkb.datalog with
      n_predicates = 4;
      n_constants = 5;
      n_facts = 10;
      n_rules = 5;
    }
  in
  List.filteri
    (fun i _ -> i > 0)
    (List.mapi
       (fun i kb -> (Printf.sprintf "randomkb-datalog-%d" i, kb))
       (Zoo.Randomkb.generate_many ~seed:47 ~count:3 config))

(* the diverging KBs only at small budgets: every run stops *)
let infinite_cases =
  [ ("staircase", Zoo.Staircase.kb ()); ("elevator", Zoo.Elevator.kb ()) ]

let infinite_budgets =
  [
    ("steps", { Chase.Variants.max_steps = 6; max_atoms = 5_000 });
    ("atoms", { Chase.Variants.max_steps = 50; max_atoms = 14 });
  ]

(* ------------------------------------------------------------------ *)
(* The law *)

let vname = function `Core -> "core" | `Restricted -> "restricted"

(* [expect] and [got] rendered through the same Queryeval line *)
let same label render ~expect ~got =
  agree label
    ~expect:(fun () -> render (expect ()))
    ~got:(fun () -> render (got ()))

let law_on cases ~budgets () =
  List.iter
    (fun (name, kb) ->
      List.iter
        (fun (bname, budget) ->
          List.iter
            (fun variant ->
              let label what q =
                Fmt.str "%s/%s/%s: %s %a" name (vname variant) bname what
                  Kb.Query.pp q
              in
              List.iter
                (fun q ->
                  if Kb.Query.is_boolean q then begin
                    let verdict v = fst (Q.verdict_line q v) in
                    same (label "via_chase" q) verdict
                      ~expect:(fun () -> R.via_chase ~variant ~budget kb q)
                      ~got:(fun () -> E.via_chase ~variant ~budget kb q);
                    same (label "decide" q) verdict
                      ~expect:(fun () ->
                        R.decide ~variant ~budget ~max_domain kb q)
                      ~got:(fun () -> E.decide ~variant ~budget ~max_domain kb q)
                  end
                  else
                    same (label "certain_answers" q)
                      (fun a -> fst (Q.answers_line q a))
                      ~expect:(fun () -> R.certain_answers ~variant ~budget kb q)
                      ~got:(fun () -> E.certain_answers ~variant ~budget kb q))
                (queries kb))
            [ `Core; `Restricted ];
          (* the UCQ and constraint entry points are core-only *)
          List.iter
            (fun u ->
              let label what = Fmt.str "%s/%s: %s %a" name bname what Ucq.pp u in
              same (label "decide_ucq") (Fmt.str "%a" E.pp_verdict)
                ~expect:(fun () -> R.decide_ucq ~budget ~max_domain kb u)
                ~got:(fun () -> E.decide_ucq ~budget ~max_domain kb u);
              let constraints = Ucq.disjuncts u in
              same (label "inconsistent")
                (fun v -> fst (Q.constraints_line v))
                ~expect:(fun () -> R.inconsistent ~budget ~constraints kb)
                ~got:(fun () -> E.inconsistent ~budget ~constraints kb))
            (ucqs kb))
        (budgets kb))
    cases

(* ------------------------------------------------------------------ *)
(* One chase per document *)

let chain_doc =
  {|
edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(e, f).
[t1] reach(X, Y) :- edge(X, Y).
[t2] reach(X, Z) :- reach(X, Y), edge(Y, Z).
[n] node(X), succ(X, Y) :- reach(X, Y).
? :- reach(a, f).
? :- reach(f, a).
?(X) :- reach(a, X).
? :- succ(X, Y), node(Y).
?(Y) :- node(Y).
|}

let rounds_of f =
  Obs.Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.enabled := false) @@ fun () ->
  let before = Obs.Metrics.counter_value "chase.rounds" in
  f ();
  Obs.Metrics.counter_value "chase.rounds" - before

let one_chase_per_document () =
  let doc =
    match Dlgp.parse_string chain_doc with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "fixture: %a" Dlgp.pp_error e
  in
  Alcotest.(check int) "five queries" 5 (List.length doc.Dlgp.queries);
  let kb = Dlgp.kb_of_document doc in
  let budget = { Chase.Variants.max_steps = 200; max_atoms = 5_000 } in
  List.iter
    (fun variant ->
      let single () =
        rounds_of (fun () ->
            ignore
              (match variant with
              | `Core -> Chase.Variants.core ~budget kb
              | `Restricted -> Chase.Variants.restricted ~budget kb))
      in
      let document () =
        rounds_of (fun () ->
            ignore
              (Q.document_lines ~budget kb
                 (lazy (Q.chase_snapshot ~variant ~budget kb))
                 doc))
      in
      agree
        (vname variant ^ ": document rounds = one chase's rounds")
        ~expect:(fun () -> string_of_int (single ()))
        ~got:(fun () -> string_of_int (document ())))
    [ `Core; `Restricted ];
  (* and the document's lines are what the per-query entry points say *)
  let variant = `Restricted in
  Alcotest.(check (list string))
    "document lines = per-query lines"
    (List.map
       (fun q ->
         if Kb.Query.is_boolean q then
           fst (Q.verdict_line q (R.decide ~variant ~budget kb q))
         else fst (Q.answers_line q (R.certain_answers ~variant ~budget kb q)))
       doc.Dlgp.queries)
    (fst
       (Q.document_lines ~budget kb
          (lazy (Q.chase_snapshot ~variant ~budget kb))
          doc))

(* ------------------------------------------------------------------ *)
(* The constraints line searches countermodels within the document's
   domain budget, like its queries: a constraint gets the verdict of
   the boolean query with the same body. *)

let diagonal_doc =
  {|
parent(alice, bob).
[anc-base] ancestor(X, Y) :- parent(X, Y).
[anc-rec]  ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
[people]   person(X), person(Y) :- parent(X, Y).
[progenitor] parent(Z, X), person(Z) :- person(X).
? :- parent(X, X).
! :- parent(X, X).
|}

let verdict_kind = function
  | E.Entailed -> "entailed"
  | E.Not_entailed -> "not entailed"
  | E.Unknown _ -> "unknown"

let constraints_honour_max_domain () =
  let doc =
    match Dlgp.parse_string diagonal_doc with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "fixture: %a" Dlgp.pp_error e
  in
  let kb = Dlgp.kb_of_document doc in
  let q = List.hd doc.Dlgp.queries and constraints = doc.Dlgp.constraints in
  let budget = { Chase.Variants.max_steps = 10; max_atoms = 5_000 } in
  List.iter
    (fun (max_domain, expected) ->
      let label what = Fmt.str "max_domain %d: %s" max_domain what in
      agree (label "constraint verdict = query verdict")
        ~expect:(fun () ->
          verdict_kind (E.decide ~variant:`Core ~budget ~max_domain kb q))
        ~got:(fun () ->
          verdict_kind (E.inconsistent ~budget ~max_domain ~constraints kb));
      agree (label "query verdict")
        ~expect:(fun () -> expected)
        ~got:(fun () ->
          verdict_kind (E.decide ~variant:`Core ~budget ~max_domain kb q));
      agree (label "document lines")
        ~expect:(fun () ->
          String.concat "\n"
            [
              fst
                (Q.constraints_line
                   (R.inconsistent ~budget ~max_domain ~constraints kb));
              fst
                (Q.verdict_line q
                   (R.decide ~variant:`Core ~budget ~max_domain kb q));
            ])
        ~got:(fun () ->
          String.concat "\n"
            (fst
               (Q.document_lines ~max_domain ~budget kb
                  (lazy (Q.chase_snapshot ~variant:`Core ~budget kb))
                  doc))))
    [ (1, "unknown"); (4, "not entailed") ]

let suites =
  [
    ( "entail.law",
      [
        tc "final element ≡ every element: zoo families and mutants"
          (law_on family_cases ~budgets);
        tc "final element ≡ every element: datalog random KBs"
          (law_on random_cases ~budgets);
        tc "final element ≡ every element: staircase and elevator"
          (law_on infinite_cases ~budgets:(fun _ -> infinite_budgets));
        tc "constraints honour max_domain" constraints_honour_max_domain;
      ] );
    ("entail.document", [ tc "one chase per document" one_chase_per_document ]);
  ]
