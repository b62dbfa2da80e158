(* zoo-ingest: the `corechase entail --engine auto` path on generated
   DLGP documents.

   Each job parses one document ([Dlgp.parse_string]), routes it
   ([Analyze.analyze] + [Analyze.route_of_report]), then decides every
   query with the routed chase variant ([Entailment.decide], or
   [certain_answers] for queries with answer variables) and renders the
   answer line through [Server.Queryeval], as the CLI does.

   The documents are the rule zoo's families and near-miss mutants at
   several scales ([Zoo.Families]) and datalog documents of hundreds to
   thousands of facts ([Zoo.Randomkb]) extended with a transitive-closure
   gadget.  Every query's answer is known from how the document was
   built, never from an earlier run of the program:

   - a fact of the document is entailed;
   - a family's derived atoms follow from its rules (comments below);
   - an atom over a constant no fact mentions is never derived by rules
     without constants, so it is not entailed once the chase reaches a
     fixpoint;
   - on diverging documents, the stated finite countermodel (at most the
     CLI's default 4 elements) refutes the query;
   - the gadget's closure over a chain n0 -> ... -> nm holds exactly for
     i < j.

   Syntax, analysis, the restricted and datalog chases and the
   countermodel search do most of the work; core retraction does
   little. *)

open Syntax

type expect = Yes | No | Answers of string list

type doc = {
  name : string;
  text : string;
  steps : int;  (** the [--steps] budget the document is run with *)
  expect : expect list;  (** one per query, in document order *)
}

let max_domain = 4

let body_of_kb kb =
  let b = Buffer.create 4096 in
  Buffer.add_string b "@facts\n";
  Atomset.iter
    (fun a -> Buffer.add_string b (Dlgp.atom_to_string a ^ ".\n"))
    (Kb.facts kb);
  Buffer.add_string b "@rules\n";
  List.iter
    (fun r -> Buffer.add_string b (Dlgp.rule_to_string r ^ "\n"))
    (Kb.rules kb);
  Buffer.contents b

let doc ~name ~steps ?(extra = "") kb queries =
  {
    name;
    text =
      body_of_kb kb ^ extra ^ "@queries\n"
      ^ String.concat "" (List.map (fun (q, _) -> q ^ "\n") queries);
    steps;
    expect = List.map snd queries;
  }

let case_kb cases name =
  (List.find (fun c -> c.Zoo.Families.name = name) cases).Zoo.Families.kb

let mutant_kb n prefix =
  (List.find
     (fun m -> m.Zoo.Families.case.Zoo.Families.name = Printf.sprintf "%s-%d-mut" prefix n)
     (Zoo.Families.mutants ~scale:n ()))
    .Zoo.Families.case.Zoo.Families.kb

(* Terminating families at scale [n]: the chase reaches a fixpoint, so
   both verdicts come from the chase. *)
let terminating n =
  let cases = Zoo.Families.families ~scale:n () in
  let k name = case_kb cases (Printf.sprintf "%s-%d" name n) in
  let d name queries = doc ~name:(Printf.sprintf "%s-%d" name n) ~steps:2000 (k name) queries in
  let p = Printf.sprintf in
  [
    (* p0(a) climbs the ladder once, through fresh nulls *)
    d "wa-ladder"
      [ (p "? :- p%d(X)." n, Yes); ("? :- p1(a).", No); ("?(X) :- p0(X).", Answers [ "a" ]) ];
    d "linear-chain" [ (p "? :- s%d(X)." n, Yes); ("? :- s1(a).", No) ];
    (* twist: h(a_{n-1}, a_n) gives h(a_n, Z), h(Z, Z) *)
    d "linear-twist" [ (p "? :- h(a%d, X), h(X, X)." n, Yes); ("? :- h(a1, a0).", No) ];
    d "guarded-pair" [ (p "? :- a(c%d, X)." n, Yes); ("? :- b(c1, c0).", No) ];
    (* walk from a0, brake on a0, walk again from the null *)
    d "braked-walk" [ ("? :- r(a0, X), s(X), r(X, Y).", Yes); ("? :- r(X, a0).", No) ];
    d "datalog-clique"
      [
        (p "? :- e(c0, c%d)." n, Yes); (p "? :- e(c%d, c0)." n, No);
        ( p "?(X) :- e(c0, X).",
          Answers (List.init n (fun i -> Printf.sprintf "c%d" (i + 1))) );
      ];
  ]

(* Diverging documents, run with a small step budget: the "yes" side is
   found by the chase, the "no" side needs the countermodel search.
   Scales stay small enough for the stated countermodels to fit the
   4-element domain. *)
let diverging n =
  let p = Printf.sprintf in
  let cases = Zoo.Families.families ~scale:n () in
  [
    (* wa-ladder-mut: the last step feeds level 0; {a, m} with every
       level on m refutes p1(a) *)
    doc ~name:(p "wa-ladder-%d-mut" n) ~steps:60 (mutant_kb n "wa-ladder")
      [ (p "? :- p%d(X), e%d(X, Y)." (n - 1) (n - 1), Yes); ("? :- p1(a).", No) ];
    (* linear-twist-mut: h(a_n, a_n) closes the chain without h(a1, a0) *)
    doc ~name:(p "linear-twist-%d-mut" n) ~steps:60 (mutant_kb n "linear-twist")
      [ (p "? :- h(a%d, X), h(X, Y)." n, Yes); ("? :- h(a1, a0).", No) ];
  ]
  @ (if 2 * n > max_domain then []
     else
       (* nonterm-loop: r(b_i, a_i) closes every seed into a 2-cycle,
          2n elements *)
       [
         doc ~name:(p "nonterm-loop-%d" n) ~steps:60
           (case_kb cases (p "nonterm-loop-%d" n))
           [ ("? :- r(b0, X), r(X, Y).", Yes); ("? :- r(X, X).", No) ];
       ])
  @ [
    (* fg-braid: the chain a0 -> a1 -> a2 closed back to a0 *)
    doc ~name:(p "fg-braid-%d" n) ~steps:60
      (case_kb cases (p "fg-braid-%d" n))
      [ (p "? :- g(a%d, X), g(X, Y)." (max 2 n), Yes); ("? :- g(X, X).", No) ];
  ]

(* A datalog document: [facts] seeded facts from [Zoo.Randomkb] under
   one of a fixed list of its rule sets, plus a transitive-closure gadget
   over the chain n0 -> ... -> n12, on predicates and constants the
   random part does not use (its closure costs O(m^2) chase steps, so
   its length is fixed and the seed only picks the queried pair).  The rule sets are fixed (Randomkb seeds at
   8 predicates) so that the seed moves the facts but not the rule
   shape: a job's cost then varies by about 15% between seeds instead of
   by orders of magnitude. *)
let rule_seeds = [| 1; 3; 5; 6; 8 |]

let random_datalog st ~rules ~facts =
  let seed = Random.State.bits st in
  let cfg =
    {
      Zoo.Randomkb.datalog with
      n_predicates = 8;
      n_constants = max 8 (facts / 3);
      n_facts = facts;
      n_rules = 3;
      max_body_atoms = 2;
      max_head_atoms = 1;
    }
  in
  let kb =
    Kb.make
      ~facts:(Kb.facts (Zoo.Randomkb.generate ~seed cfg))
      ~rules:
        (Kb.rules
           (Zoo.Randomkb.generate ~seed:rule_seeds.(rules)
              { cfg with n_facts = 0; n_constants = 1 }))
  in
  let m = 12 in
  let gadget =
    String.concat ""
      (List.init m (fun i -> Printf.sprintf "g(n%d, n%d).\n" i (i + 1)))
    ^ "@rules\ngt(X, Y) :- g(X, Y).\ngt(X, Z) :- gt(X, Y), g(Y, Z).\n"
  in
  let fact = Dlgp.atom_to_string (List.hd (Atomset.to_list (Kb.facts kb))) in
  let i = Random.State.int st (m - 1) in
  let j = i + 1 + Random.State.int st (m - i - 1) in
  let p = Printf.sprintf in
  doc ~name:(p "randomkb-r%d-%d-facts-seed-%d" rules facts seed) ~steps:2000
    ~extra:("@facts\n" ^ gadget) kb
    [
      (p "? :- %s." fact, Yes);
      ("? :- p0(zz).", No);
      (p "? :- gt(n%d, n%d)." i j, Yes);
      (p "? :- gt(n%d, n%d)." j i, No);
      (p "?(X) :- gt(n%d, X)." (m - 2), Answers [ p "n%d" (m - 1); p "n%d" m ]);
    ]

(* One deck: the families at one scale of each of two strata (the seed
   picks the scale inside it), the diverging documents at scales 2 and
   3, and two datalog documents per rule set at fact counts spread over
   100-280.  The mix puts as many documents above the ~80 ms diverging
   cluster as below it, so the median job falls inside that cluster
   rather than on the edge between two. *)
let deck st =
  let pick lo hi = lo + Random.State.int st (hi - lo + 1) in
  let docs =
    List.concat_map terminating [ pick 2 4; pick 5 8 ]
    @ diverging 2 @ diverging 3
    @ List.concat
        (List.init (Array.length rule_seeds) (fun rules ->
             List.init 2 (fun _ ->
                 random_datalog st ~rules ~facts:(100 + (rules * 40) + pick 0 20))))
  in
  let a = Array.of_list docs in
  Common.shuffle st a;
  a

let warmup =
  let st = Common.rng 0 in
  terminating 2 @ diverging 2
  @ List.init (Array.length rule_seeds) (fun rules ->
        random_datalog st ~rules ~facts:100)

module E = Corechase.Entailment

(* [decide] as the CLI calls it; the traced run calls its two documented
   parts, [via_chase] then [via_countermodel], to time them apart. *)
let decide ~variant ~budget kb q =
  if not !Layers.on then E.decide ~variant ~budget ~max_domain kb q
  else
    match
      Layers.time "corechase.decide_chase_ms" (fun () ->
          Layers.chase (fun () -> E.via_chase ~variant ~budget kb q))
    with
    | (E.Entailed | E.Not_entailed) as v -> v
    | E.Unknown why1 -> (
        match
          Layers.time "corechase.countermodel_ms" (fun () ->
              E.via_countermodel ~max_domain kb q)
        with
        | E.Unknown why2 -> E.Unknown (why1 ^ "; " ^ why2)
        | v -> v)

let check_line d i line expect got =
  let what = Printf.sprintf "%s query %d" d.name i in
  let r =
    match (expect, got) with
    | Yes, `V E.Entailed | No, `V E.Not_entailed -> Ok ()
    | Answers want, `A (E.Complete tuples) ->
        let got =
          List.sort compare
            (List.map (fun t -> String.concat "," (List.map (Fmt.str "%a" Term.pp) t)) tuples)
        in
        if got = List.sort compare want then Ok ()
        else Error ("answers " ^ String.concat " " got)
    | _ -> Error line
  in
  (what, r)

let run d =
  Layers.count "syntax.parse_bytes" (String.length d.text);
  let parsed =
    Layers.time "syntax.parse_ms" (fun () -> Dlgp.parse_string d.text)
  in
  match parsed with
  | Error e -> [ (d.name ^ " parse", Error (Fmt.str "%a" Dlgp.pp_error e)) ]
  | Ok doc ->
      let kb = Dlgp.kb_of_document doc in
      let budget = { Chase.Variants.max_steps = d.steps; max_atoms = 20_000 } in
      let choice =
        Layers.time "analyze.ms" (fun () ->
            fst (Analyze.route_of_report kb (Analyze.analyze ~budget kb)))
      in
      Layers.count ("analyze.routed_" ^ Chase.engine_name choice) 1;
      let variant =
        match choice with
        | Chase.Engine_core -> `Core
        | Chase.Engine_datalog | Chase.Engine_restricted -> `Restricted
      in
      if List.length doc.Dlgp.queries <> List.length d.expect then
        [ (d.name ^ " queries", Error "query count differs from the generator's") ]
      else
      List.mapi
        (fun i (q, expect) ->
          if Kb.Query.is_boolean q then begin
            let v = decide ~variant ~budget kb q in
            let line, _ = Server.Queryeval.verdict_line q v in
            check_line d i line expect (`V v)
          end
          else begin
            let a =
              Layers.time "corechase.decide_chase_ms" (fun () ->
                  Layers.chase (fun () ->
                      E.certain_answers ~variant ~budget kb q))
            in
            let line, _ = Server.Queryeval.answers_line q a in
            check_line d i line expect (`A a)
          end)
        (List.combine doc.Dlgp.queries d.expect)

let spec = { Closed.deck_seconds = 3.5; warmup; deck; run }

let layer_values (r : Closed.result) =
  let n = float_of_int (List.length r.Closed.traced_ms) in
  let per name = Layers.get name /. n in
  let total = Common.sum r.Closed.traced_ms /. n in
  let rows =
    List.map
      (fun k -> (k, per k))
      [ "syntax.parse_ms"; "analyze.ms"; "corechase.decide_chase_ms"; "corechase.countermodel_ms" ]
  in
  let unattributed =
    Report.print_layer_table ~workload:"zoo-ingest" ~total ~rows
      ~predicted:"mostly syntax + analyze + corechase, core retraction small"
      ~dominant:[ "syntax.parse_ms"; "analyze.ms"; "corechase.decide_chase_ms"; "corechase.countermodel_ms" ] ()
  in
  let before, after = r.Closed.counters in
  rows
  @ List.map
      (fun k -> (k, per k))
      [ "chase.engine_ms"; "chase.discover_ms"; "chase.apply_ms";
        "analyze.routed_datalog"; "analyze.routed_restricted"; "analyze.routed_core" ]
  @ [
      ("unattributed_ms", unattributed);
      ("analyze.share", per "analyze.ms" /. total);
      ("syntax.parse_mb_per_s", per "syntax.parse_bytes" /. 1e6 /. (per "syntax.parse_ms" /. 1000.));
      ("obs.trace_overhead_pct", 100. *. (Common.median r.Closed.overhead -. 1.));
    ]
  @ Report.counter_values ~before ~after ~per:n Report.plain_counters
  @ Report.derived_counter_values ~before ~after
  @ Report.host_values ()
