(* paper-core: the paper's own machinery on its two infinite KBs.

   Each job runs the core chase ([Chase.Variants.core]) on the steepening
   staircase K_h or the inflating elevator K_v, built in memory (their
   null facts do not round-trip through DLGP), then checks what the
   paper proves about the run:

   - on K_h, the final instance and the robust aggregation have
     treewidth at most 2 (Proposition 4, Proposition 12.2);
   - the robust sequence satisfies its invariants (Propositions 10-12);
   - a prefix of the KB's universal model, read as a Boolean CQ, is
     entailed by the final instance, and a CQ false in the universal
     model is not (every chase element maps into every model,
     Proposition 1).

   Hom search, core retraction and trigger discovery do nearly all the
   work; parsing, analysis, storage and the server do none. *)

open Syntax

type kb = Kh | Kv

type job = { kb : kb; cadence : Chase.Variants.cadence; steps : int }

let kb_name = function Kh -> "K_h" | Kv -> "K_v"

let cadence_name = function
  | Chase.Variants.Every_application -> "every-application"
  | Chase.Variants.Every_round -> "every-round"

let describe j =
  Printf.sprintf "%s/%s/%d" (kb_name j.kb) (cadence_name j.cadence) j.steps

(* Step budgets: the chase diverges on both KBs, so the budget sets the
   job size (K_h 40-80 steps, K_v 25-50). *)
let range = function Kh -> (40, 80) | Kv -> (25, 50)

let classes =
  [
    (Kh, Chase.Variants.Every_application); (Kh, Chase.Variants.Every_round);
    (Kv, Chase.Variants.Every_application); (Kv, Chase.Variants.Every_round);
  ]

let per_class = 10

(* One deck: every (KB, cadence) class at [per_class] budgets spread
   evenly over its range with a seeded offset, in seeded order.  Every
   deck has the same mix, so the latency distribution barely depends on
   the seed. *)
let deck st =
  let jobs =
    List.concat_map
      (fun (kb, cadence) ->
        let lo, hi = range kb in
        let span = hi - lo in
        let off = Random.State.int st span in
        List.init per_class (fun i ->
            { kb; cadence; steps = lo + ((((i * span) + off) / per_class) mod span) }))
      classes
  in
  let a = Array.of_list jobs in
  Common.shuffle st a;
  a

(* Set-up work: every class at four fixed budgets. *)
let warmup =
  List.concat_map
    (fun (kb, cadence) ->
      let lo, hi = range kb in
      List.init 4 (fun i -> { kb; cadence; steps = lo + (i * (hi - lo) / 4) }))
    classes

let query atoms = Kb.Query.of_atomset atoms

(* Boolean CQs whose truth the paper's constructions fix. *)
let queries = function
  | Kh ->
      let p = Zoo.Staircase.universal_model_prefix ~cols:1 in
      let x = Term.fresh_var () in
      ( query p.Zoo.Staircase.atoms,
        (* I^h has f on row 0 and c only above it *)
        Kb.Query.make [ Atom.make "f" [ x ]; Atom.make "c" [ x ] ] )
  | Kv ->
      (* what the first applications of Rv1, Rv4-Rv6 derive from F_v:
         columns 0-1 of I^v (Definition 10) *)
      let x = Term.fresh_var () and y = Term.fresh_var () in
      let z = Term.fresh_var () and w = Term.fresh_var () in
      let a = Atom.make in
      ( Kb.Query.make
          [
            a "c" [ x ]; a "d" [ x ]; a "f" [ x ]; a "v" [ x; x ]; a "h" [ x; y ];
            a "f" [ y ]; a "d" [ y ]; a "v" [ y; z ]; a "v" [ z; w ]; a "c" [ w ];
          ],
        (* every h edge of I^v joins column i to column i+1 *)
        Kb.Query.make [ a "h" [ x; x ] ] )

let kb_of = function Kh -> Zoo.Staircase.kb () | Kv -> Zoo.Elevator.kb ()

let ok_if cond msg = if cond then Ok () else Error msg

let run j =
  let kb = kb_of j.kb in
  let budget = { Chase.Variants.max_steps = j.steps; max_atoms = 100_000 } in
  let r =
    Layers.chase (fun () -> Chase.Variants.core ~budget ~cadence:j.cadence kb)
  in
  let d = r.Chase.Variants.derivation in
  let final = (Chase.Derivation.last d).Chase.Derivation.instance in
  let robust, invariants =
    Layers.time "corechase.robust_ms" (fun () ->
        let rs = Corechase.Robust.of_derivation d in
        (Corechase.Robust.aggregation rs, Corechase.Robust.check_invariants rs))
  in
  let tw =
    match j.kb with
    | Kh ->
        Layers.time "treewidth.ms" (fun () ->
            let a = Treewidth.upper_bound final in
            let b = Treewidth.upper_bound robust in
            ok_if (a <= 2 && b <= 2)
              (Printf.sprintf "treewidth bound 2 broken: final %d, D⊛ %d" a b))
    | Kv -> Ok ()
  in
  let entailed, refuted = queries j.kb in
  let holds =
    let idx =
      Layers.time "homo.index_ms" (fun () -> Homo.Instance.of_atomset final)
    in
    Layers.time "corechase.holds_ms" (fun () ->
        let yes = Corechase.Entailment.holds_in_indexed entailed idx in
        let no = Corechase.Entailment.holds_in_indexed refuted idx in
        if not yes then Error "universal-model prefix not entailed"
        else ok_if (not no) "a CQ false in the universal model holds")
  in
  let what = describe j in
  [
    ( what ^ " outcome",
      ok_if
        (r.Chase.Variants.outcome = Chase.Variants.Step_budget)
        "the chase of an infinite KB stopped before its step budget" );
    (what ^ " Prop 4 / 12.2", tw);
    (what ^ " robust invariants", invariants);
    (what ^ " entailment", holds);
  ]

let spec = { Closed.deck_seconds = 2.0; warmup; deck; run }

let layer_values (r : Closed.result) =
  let n = float_of_int (List.length r.Closed.traced_ms) in
  let per name = Layers.get name /. n in
  let engine = per "chase.engine_ms" in
  let phases = [ "chase.discover_ms"; "chase.apply_ms" ] in
  let rows =
    List.map (fun p -> (p, per p)) phases
    @ [
        ("chase.other_ms", engine -. Common.sum (List.map per phases));
        ("corechase.robust_ms", per "corechase.robust_ms");
        ("treewidth.ms", per "treewidth.ms");
        ("homo.index_ms", per "homo.index_ms");
        ("corechase.holds_ms", per "corechase.holds_ms");
      ]
  in
  let unattributed =
    Report.print_layer_table ~workload:"paper-core"
      ~total:(Common.sum r.Closed.traced_ms /. n)
      ~rows
      ~predicted:"mostly homo + chase (hom search runs inside chase discovery and retraction)"
      ~dominant:[ "chase.discover_ms"; "chase.apply_ms"; "chase.other_ms"; "homo.index_ms" ] ()
  in
  let before, after = r.Closed.counters in
  [ ("chase.engine_ms", engine); ("unattributed_ms", unattributed);
    ( "obs.trace_overhead_pct",
      100. *. (Common.median r.Closed.overhead -. 1.) ) ]
  @ List.filter (fun (k, _) -> k <> "chase.other_ms") rows
  @ Report.counter_values ~before ~after ~per:n Report.plain_counters
  @ Report.derived_counter_values ~before ~after
  @ Report.host_values ()
