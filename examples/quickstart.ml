(* Quickstart: parse a DLGP knowledge base, run the chase variants, answer
   conjunctive queries.

   Run with:  dune exec examples/quickstart.exe *)

open Syntax

let source =
  {|
  % A toy genealogy ontology with value invention.
  @facts
  parent(alice, bob).
  parent(bob, carol).

  @rules
  [anc-base]  ancestor(X, Y) :- parent(X, Y).
  [anc-rec]   ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
  [everyone]  parent(Z, X), person(Z) :- person(X).
  [people]    person(X), person(Y) :- parent(X, Y).

  @queries
  ? :- ancestor(alice, carol).
  ? :- parent(U, alice), person(U).
  ? :- ancestor(carol, alice).
|}

let () =
  let doc =
    match Dlgp.parse_string source with
    | Ok d -> d
    | Error e -> Fmt.failwith "%a" Dlgp.pp_error e
  in
  let kb = Dlgp.kb_of_document doc in
  Fmt.pr "Parsed %d facts, %d rules, %d queries.@."
    (Atomset.cardinal (Kb.facts kb))
    (List.length (Kb.rules kb))
    (List.length doc.Dlgp.queries);

  (* The [everyone] rule invents ancestors forever: the chase cannot
     terminate, so we work with budgets. *)
  let budget = { Chase.Variants.max_steps = 60; max_atoms = 2_000 } in
  List.iter
    (fun variant ->
      let report = Chase.run ~budget variant kb in
      Fmt.pr "%-10s %-12s %3d steps, final instance: %d atoms@."
        (Chase.variant_name variant)
        (if Resilience.terminated report.Chase.outcome then "terminated"
         else "budget")
        report.Chase.steps
        (Atomset.cardinal report.Chase.final))
    [ Chase.Oblivious; Chase.Skolem; Chase.Restricted; Chase.Frugal; Chase.Core ];

  (* Entailment, Theorem-1 style: the chase is the "yes" semi-procedure,
     the bounded model finder the "no" semi-procedure. *)
  List.iter
    (fun q ->
      let verdict = Corechase.Entailment.decide ~budget ~max_domain:3 kb q in
      Fmt.pr "%a  ⟶  %a@." Kb.Query.pp q Corechase.Entailment.pp_verdict
        verdict)
    doc.Dlgp.queries;

  (* Structural analysis of the ruleset. *)
  Fmt.pr "@.Syntactic class analysis:@.%a@." Rclasses.pp_report
    (Rclasses.analyze (Kb.rules kb))
