(* Tests for lib/chase: triggers, Definition-1 derivations, the four chase
   variants, termination behaviour on classic discriminating examples. *)

open Syntax

let atom p args = Atom.make p args
let aset = Atomset.of_list
let a = Term.const "a"
let b = Term.const "b"

let mk_rule ?name body head = Rule.make ?name ~body ~head ()

(* KB 1: symmetric closure (datalog, terminating for every variant). *)
let kb_sym () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" () in
  Kb.of_lists
    ~facts:[ atom "p" [ a; b ] ]
    ~rules:[ mk_rule ~name:"sym" [ atom "p" [ x; y ] ] [ atom "p" [ y; x ] ] ]

(* KB 2: infinite chain r(X,Y) → ∃Z r(Y,Z) (non-terminating, all variants). *)
let kb_chain () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  Kb.of_lists
    ~facts:[ atom "r" [ a; b ] ]
    ~rules:[ mk_rule ~name:"chain" [ atom "r" [ x; y ] ] [ atom "r" [ y; z ] ] ]

(* KB 3: core chase terminates, restricted chase runs forever.
   R1: p(X) → ∃Y e(X,Y) ∧ p(Y);  R2: p(X) → e(X,X). *)
let kb_core_wins () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" () in
  let r1 =
    mk_rule ~name:"r1" [ atom "p" [ x ] ] [ atom "e" [ x; y ]; atom "p" [ y ] ]
  in
  let x2 = Term.fresh_var ~hint:"X" () in
  let r2 = mk_rule ~name:"r2" [ atom "p" [ x2 ] ] [ atom "e" [ x2; x2 ] ] in
  Kb.of_lists ~facts:[ atom "p" [ a ] ] ~rules:[ r1; r2 ]

(* KB 4: skolem terminates where oblivious does not:
   r(X,Y) → ∃Z r(X,Z). *)
let kb_skolem_vs_oblivious () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  Kb.of_lists
    ~facts:[ atom "r" [ a; b ] ]
    ~rules:[ mk_rule ~name:"so" [ atom "r" [ x; y ] ] [ atom "r" [ x; z ] ] ]

(* rule p(X) → ∃Y∃Z e(X,Y) ∧ f(X,Z) over {p(a), e(a,b)}: the trigger is
   unsatisfied (no f(a,_)), but the e-half of the head is redundant; the
   frugal chase folds Y onto b immediately, the restricted chase keeps
   both fresh nulls *)
let kb_partial_head () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  Kb.of_lists
    ~facts:[ atom "p" [ a ]; atom "e" [ a; b ] ]
    ~rules:
      [ mk_rule ~name:"r" [ atom "p" [ x ] ] [ atom "e" [ x; y ]; atom "f" [ x; z ] ] ]

let small_budget = { Chase.Variants.max_steps = 40; max_atoms = 400 }

(* ------------------------------------------------------------------ *)
(* Trigger tests *)

let test_trigger_basic () =
  let kb = kb_sym () in
  let r = List.hd (Kb.rules kb) in
  let trs =
    Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb))
  in
  Alcotest.(check int) "one trigger" 1 (List.length trs);
  let tr = List.hd trs in
  Alcotest.(check bool) "is trigger" true
    (Chase.Trigger.is_trigger_for tr (Kb.facts kb));
  Alcotest.(check bool) "not yet satisfied" false
    (Chase.Trigger.satisfied tr (Kb.facts kb))

let test_trigger_apply () =
  let kb = kb_sym () in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  let app = Chase.Trigger.apply tr (Kb.facts kb) in
  Alcotest.(check bool) "p(b,a) produced" true
    (Atomset.mem (atom "p" [ b; a ]) app.Chase.Trigger.result);
  Alcotest.(check int) "no fresh nulls for datalog" 0
    (List.length app.Chase.Trigger.fresh)

let test_trigger_apply_existential_fresh () =
  let kb = kb_chain () in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  let app = Chase.Trigger.apply tr (Kb.facts kb) in
  Alcotest.(check int) "one fresh null" 1 (List.length app.Chase.Trigger.fresh);
  let app2 = Chase.Trigger.apply tr (Kb.facts kb) in
  Alcotest.(check bool) "fresh nulls globally fresh across applications" true
    (not
       (Term.equal
          (List.hd app.Chase.Trigger.fresh)
          (List.hd app2.Chase.Trigger.fresh)))

let test_trigger_satisfaction_after_apply () =
  let kb = kb_sym () in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  let app = Chase.Trigger.apply tr (Kb.facts kb) in
  Alcotest.(check bool) "satisfied after application" true
    (Chase.Trigger.satisfied tr app.Chase.Trigger.result)

let test_trigger_rename () =
  let kb = kb_chain () in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  (* rename b ↦ a *)
  let sigma = Subst.empty in
  let tr' = Chase.Trigger.rename sigma tr in
  Alcotest.(check bool) "identity rename preserves" true
    (Chase.Trigger.equal tr tr')

let test_trigger_apply_requires_triggerhood () =
  let kb = kb_sym () in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  match Chase.Trigger.apply tr (aset [ atom "q" [ a ] ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must reject non-trigger application"

(* ------------------------------------------------------------------ *)
(* Derivation tests *)

let test_derivation_start () =
  let kb = kb_sym () in
  let d = Chase.Derivation.start kb in
  Alcotest.(check int) "length 1" 1 (Chase.Derivation.length d);
  Alcotest.(check bool) "F_0 = F" true
    (Atomset.equal (Chase.Derivation.instance_at d 0) (Kb.facts kb))

let test_derivation_extend_and_access () =
  let kb = kb_sym () in
  let d = Chase.Derivation.start kb in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  let d = Chase.Derivation.extend d tr ~simplification:Subst.empty in
  Alcotest.(check int) "length 2" 2 (Chase.Derivation.length d);
  Alcotest.(check bool) "F_1 contains p(b,a)" true
    (Atomset.mem (atom "p" [ b; a ]) (Chase.Derivation.instance_at d 1));
  Alcotest.(check bool) "monotonic" true (Chase.Derivation.is_monotonic d)

let test_derivation_rejects_satisfied_trigger () =
  let kb = kb_sym () in
  let d = Chase.Derivation.start kb in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  let d = Chase.Derivation.extend d tr ~simplification:Subst.empty in
  (* the symmetric closure of the new atom maps back: p(b,a)'s trigger is
     already satisfied by p(a,b) *)
  let r2_triggers =
    Chase.Trigger.triggers_of r
      (Homo.Instance.of_atomset (Chase.Derivation.instance_at d 1))
  in
  let satisfied_one =
    List.find
      (fun t -> Chase.Trigger.satisfied t (Chase.Derivation.instance_at d 1))
      r2_triggers
  in
  match Chase.Derivation.extend d satisfied_one ~simplification:Subst.empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Definition 1 forbids firing satisfied triggers"

let test_derivation_rejects_non_retraction () =
  let kb = kb_chain () in
  let d = Chase.Derivation.start kb in
  let r = List.hd (Kb.rules kb) in
  let tr =
    List.hd (Chase.Trigger.triggers_of r (Homo.Instance.of_atomset (Kb.facts kb)))
  in
  let app = Chase.Trigger.apply tr (Kb.facts kb) in
  (* map the created null onto a fresh variable foreign to the instance:
     the image is not inside the pre-instance, so not an endomorphism *)
  let null = List.hd app.Chase.Trigger.fresh in
  let bogus = Subst.of_list [ (null, Term.fresh_var ()) ] in
  match
    Chase.Derivation.extend_applied d tr app ~simplification:bogus
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-retraction simplifications must be rejected"

let test_sigma_trace_identity_when_monotonic () =
  let kb = kb_sym () in
  let r = Chase.Variants.restricted kb in
  let d = r.Chase.Variants.derivation in
  let tr = Chase.Derivation.sigma_trace d ~from_:0 ~to_:(Chase.Derivation.length d - 1) in
  Alcotest.(check bool) "identity trace" true
    (Subst.is_identity_on (Atomset.terms (Chase.Derivation.instance_at d 0)) tr)

(* ------------------------------------------------------------------ *)
(* Restricted chase *)

let test_restricted_terminates_sym () =
  let r = Chase.Variants.restricted (kb_sym ()) in
  Alcotest.(check bool) "terminated" true
    (r.Chase.Variants.outcome = Chase.Variants.Fixpoint);
  let final = (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance in
  Alcotest.(check int) "2 atoms" 2 (Atomset.cardinal final);
  Alcotest.(check bool) "is a model" true (Chase.is_model (kb_sym ()) final)

let test_restricted_result_is_universal_model () =
  let kb = kb_sym () in
  let r = Chase.Variants.restricted kb in
  let final = (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance in
  (* a handmade model: p(a,b), p(b,a), p(a,a) — final must map into it *)
  let m = aset [ atom "p" [ a; b ]; atom "p" [ b; a ]; atom "p" [ a; a ] ] in
  Alcotest.(check bool) "maps into every model" true (Homo.Hom.maps_to final m)

let test_restricted_chain_budget () =
  let r = Chase.Variants.restricted ~budget:small_budget (kb_chain ()) in
  Alcotest.(check bool) "budget exhausted" true
    (match r.Chase.Variants.outcome with
     | Chase.Variants.Step_budget | Chase.Variants.Atom_budget -> true
     | _ -> false);
  Alcotest.(check bool) "monotonic derivation" true
    (Chase.Derivation.is_monotonic r.Chase.Variants.derivation)

let test_restricted_terminated_prefix_is_fair () =
  let r = Chase.Variants.restricted (kb_sym ()) in
  Alcotest.(check bool) "fair" true
    (Chase.Derivation.is_fair_prefix r.Chase.Variants.derivation)

let test_restricted_nonterminating_on_core_wins_kb () =
  let r = Chase.Variants.restricted ~budget:small_budget (kb_core_wins ()) in
  Alcotest.(check bool) "restricted exhausts budget" true
    (match r.Chase.Variants.outcome with
     | Chase.Variants.Step_budget | Chase.Variants.Atom_budget -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Core chase *)

let test_core_terminates_on_core_wins_kb () =
  let r = Chase.Variants.core ~budget:small_budget (kb_core_wins ()) in
  Alcotest.(check bool) "core chase terminates" true
    (r.Chase.Variants.outcome = Chase.Variants.Fixpoint);
  let final = (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance in
  Alcotest.(check bool) "final is a core" true (Homo.Core.is_core final);
  Alcotest.(check bool) "final is a model" true (Chase.is_model (kb_core_wins ()) final);
  Alcotest.(check int) "minimal model: p(a), e(a,a)" 2 (Atomset.cardinal final)

let test_core_every_round_agrees () =
  let r =
    Chase.Variants.core ~cadence:Chase.Variants.Every_round
      ~budget:small_budget (kb_core_wins ())
  in
  Alcotest.(check bool) "terminates too" true
    (r.Chase.Variants.outcome = Chase.Variants.Fixpoint);
  let final = (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance in
  Alcotest.(check int) "same minimal model" 2 (Atomset.cardinal final)

let test_core_instances_are_cores () =
  let r = Chase.Variants.core ~budget:small_budget (kb_core_wins ()) in
  List.iter
    (fun st ->
      Alcotest.(check bool) "every F_i is a core" true
        (Homo.Core.is_core st.Chase.Derivation.instance))
    (Chase.Derivation.steps r.Chase.Variants.derivation)

let test_core_on_terminating_equals_core_of_restricted () =
  let kb = kb_sym () in
  let rc = Chase.Variants.restricted kb in
  let cc = Chase.Variants.core kb in
  let fr = (Chase.Derivation.last rc.Chase.Variants.derivation).Chase.Derivation.instance in
  let fc = (Chase.Derivation.last cc.Chase.Variants.derivation).Chase.Derivation.instance in
  Alcotest.(check bool) "core result ≅ core of restricted result" true
    (Homo.Morphism.isomorphic (Homo.Core.of_atomset fr) fc)

let test_core_simplify_start () =
  (* initial facts with redundancy: p(a,b) ∧ p(a,Y) retracts to p(a,b) *)
  let y = Term.fresh_var ~hint:"Y" () in
  let kb = Kb.of_lists ~facts:[ atom "p" [ a; b ]; atom "p" [ a; y ] ] ~rules:[] in
  let r = Chase.Variants.core kb in
  let f0 = Chase.Derivation.instance_at r.Chase.Variants.derivation 0 in
  Alcotest.(check int) "σ_0 already retracts" 1 (Atomset.cardinal f0)

let test_fairness_debt_empty_on_terminated () =
  let r = Chase.Variants.restricted (kb_sym ()) in
  Alcotest.(check int) "no debt after fixpoint" 0
    (List.length (Chase.Derivation.fairness_debt r.Chase.Variants.derivation))

let test_fairness_debt_nonempty_on_truncation () =
  (* cut the chain chase short: the last instance's trigger is owed *)
  let r =
    Chase.Variants.restricted
      ~budget:{ Chase.Variants.max_steps = 3; max_atoms = 100 }
      (kb_chain ())
  in
  Alcotest.(check bool) "debt recorded" true
    (Chase.Derivation.fairness_debt r.Chase.Variants.derivation <> [])

let test_validate_accepts_engine_output () =
  List.iter
    (fun run ->
      match Chase.Derivation.validate run.Chase.Variants.derivation with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [
      Chase.Variants.restricted (kb_sym ());
      Chase.Variants.core ~budget:small_budget (kb_core_wins ());
    ]

(* ------------------------------------------------------------------ *)
(* Lazy streams *)

let test_stream_terminating () =
  let elems =
    List.of_seq (Chase.Variants.stream ~variant:`Restricted (kb_sym ()))
  in
  (* F_0 plus one application *)
  Alcotest.(check int) "two elements" 2 (List.length elems);
  let final =
    (Chase.Derivation.last (List.nth elems 1)).Chase.Derivation.instance
  in
  Alcotest.(check int) "fixpoint reached" 2 (Atomset.cardinal final)

let test_stream_infinite_prefix () =
  let elems =
    List.of_seq
      (Seq.take 12 (Chase.Variants.stream ~variant:`Restricted (kb_chain ())))
  in
  Alcotest.(check int) "12 elements on demand" 12 (List.length elems);
  (* element i is a derivation of length i+1 and extends element i-1 *)
  List.iteri
    (fun i d ->
      Alcotest.(check int) "length grows" (i + 1) (Chase.Derivation.length d))
    elems

(* The stream and the eager engine of a variant schedule identically:
   up to the eager run's length, the stream fires the same rule at every
   index and yields instances of the same size, and the last instances
   are isomorphic.  Fresh null names differ between the two runs. *)
let stream_agrees_with_eager name variant eager kb =
  let d = (eager kb).Chase.Variants.derivation in
  let n = Chase.Derivation.length d in
  let streamed =
    List.of_seq (Seq.take n (Chase.Variants.stream ~variant kb))
  in
  Alcotest.(check int) (name ^ ": as many elements") n (List.length streamed);
  let ds = List.nth streamed (n - 1) in
  let summary d =
    List.map
      (fun (st : Chase.Derivation.step) ->
        ( Option.fold ~none:"" ~some:(fun tr -> Rule.name (Chase.Trigger.rule tr))
            st.Chase.Derivation.trigger,
          Atomset.cardinal st.Chase.Derivation.instance ))
      (Chase.Derivation.steps d)
  in
  Alcotest.(check (list (pair string int)))
    (name ^ ": same rule and size at every index")
    (summary d) (summary ds);
  Alcotest.(check bool) (name ^ ": isomorphic last instances") true
    (Homo.Morphism.isomorphic
       (Chase.Derivation.last ds).Chase.Derivation.instance
       (Chase.Derivation.last d).Chase.Derivation.instance)

let staircase_budget = { Chase.Variants.max_steps = 20; max_atoms = 2000 }

let test_stream_agrees_with_eager () =
  List.iter
    (fun (kname, kb, budget) ->
      stream_agrees_with_eager (kname ^ "/restricted") `Restricted
        (Chase.Variants.restricted ~budget) kb;
      stream_agrees_with_eager (kname ^ "/frugal") `Frugal
        (Chase.Variants.frugal ~budget) kb;
      stream_agrees_with_eager (kname ^ "/core") `Core
        (Chase.Variants.core ~budget ~simplify_start:true)
        kb)
    [
      ("core-wins", kb_core_wins (), small_budget);
      ("partial-head", kb_partial_head (), small_budget);
      ("staircase", Zoo.Staircase.kb (), staircase_budget);
    ]

(* ------------------------------------------------------------------ *)
(* Frugal chase *)

let test_frugal_folds_partially_satisfied_heads () =
  let kb = kb_partial_head () in
  let fr = Chase.Variants.frugal kb in
  let rc = Chase.Variants.restricted kb in
  Alcotest.(check bool) "frugal terminates" true
    (fr.Chase.Variants.outcome = Chase.Variants.Fixpoint);
  let last run =
    (Chase.Derivation.last run.Chase.Variants.derivation).Chase.Derivation.instance
  in
  Alcotest.(check int) "frugal folds the e-half" 3 (Atomset.cardinal (last fr));
  Alcotest.(check int) "restricted keeps both nulls" 4
    (Atomset.cardinal (last rc));
  Alcotest.(check bool) "frugal result is a model" true
    (Chase.is_model kb (last fr))

let test_frugal_between_restricted_and_core () =
  (* on the staircase, frugal instances are never larger than restricted
     ones and never smaller than the core chase's at the same step count *)
  let kb = Zoo.Staircase.kb () in
  let b = { Chase.Variants.max_steps = 25; max_atoms = 2000 } in
  let last run =
    Atomset.cardinal
      (Chase.Derivation.last run.Chase.Variants.derivation).Chase.Derivation.instance
  in
  let fr = Chase.Variants.frugal ~budget:b kb in
  let rc = Chase.Variants.restricted ~budget:b kb in
  Alcotest.(check bool) "frugal ≤ restricted in size" true (last fr <= last rc)

let test_frugal_simplifications_are_retractions () =
  let kb = Zoo.Staircase.kb () in
  let r =
    Chase.Variants.frugal
      ~budget:{ Chase.Variants.max_steps = 20; max_atoms = 2000 }
      kb
  in
  List.iter
    (fun st ->
      Alcotest.(check bool) "σ_i is a retraction of A_i" true
        (Subst.is_retraction_of st.Chase.Derivation.pre_instance
           st.Chase.Derivation.simplification))
    (Chase.Derivation.steps r.Chase.Variants.derivation)

let test_frugal_only_moves_fresh_nulls () =
  (* the terms that a frugal simplification actually moves are always
     nulls created at that very step (older terms stay fixed) *)
  let kb = Zoo.Staircase.kb () in
  let r =
    Chase.Variants.frugal
      ~budget:{ Chase.Variants.max_steps = 20; max_atoms = 2000 }
      kb
  in
  let steps = Chase.Derivation.steps r.Chase.Variants.derivation in
  List.iteri
    (fun i st ->
      if i > 0 then begin
        let prev = List.nth steps (i - 1) in
        let old_terms = Atomset.terms prev.Chase.Derivation.instance in
        let moved =
          List.filter
            (fun t ->
              not
                (Term.equal
                   (Subst.apply_term st.Chase.Derivation.simplification t)
                   t))
            (Atomset.terms st.Chase.Derivation.pre_instance)
        in
        List.iter
          (fun t ->
            Alcotest.(check bool)
              (Fmt.str "moved term %a is fresh" Term.pp_debug t)
              false
              (List.exists (Term.equal t) old_terms))
          moved
      end)
    steps

(* ------------------------------------------------------------------ *)
(* Baselines *)

let test_oblivious_infinite_where_skolem_finite () =
  let kb = kb_skolem_vs_oblivious () in
  let ob = Chase.Variants.Baseline.oblivious ~budget:small_budget kb in
  let sk = Chase.Variants.Baseline.skolem ~budget:small_budget kb in
  Alcotest.(check bool) "oblivious diverges" false (Resilience.terminated ob.Chase.Variants.Baseline.outcome);
  Alcotest.(check bool) "skolem terminates" true (Resilience.terminated sk.Chase.Variants.Baseline.outcome);
  Alcotest.(check int) "skolem fires once" 1 sk.Chase.Variants.Baseline.steps

let test_oblivious_on_datalog_terminates () =
  let ob = Chase.Variants.Baseline.oblivious (kb_sym ()) in
  Alcotest.(check bool) "terminates" true (Resilience.terminated ob.Chase.Variants.Baseline.outcome);
  let final = List.nth ob.Chase.Variants.Baseline.instances
      (List.length ob.Chase.Variants.Baseline.instances - 1) in
  Alcotest.(check bool) "model" true (Chase.is_model (kb_sym ()) final)

let test_baseline_monotone () =
  let sk = Chase.Variants.Baseline.skolem ~budget:small_budget (kb_chain ()) in
  let rec mono = function
    | a1 :: (a2 :: _ as rest) -> Atomset.subset a1 a2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "skolem trace monotone" true
    (mono sk.Chase.Variants.Baseline.instances)

(* ------------------------------------------------------------------ *)
(* Facade *)

let test_run_facade_all_variants () =
  let kb = kb_sym () in
  List.iter
    (fun v ->
      let rep = Chase.run v kb in
      Alcotest.(check bool)
        (Chase.variant_name v ^ " terminates on datalog")
        true (Resilience.terminated rep.Chase.outcome);
      Alcotest.(check bool)
        (Chase.variant_name v ^ " final is model")
        true
        (Chase.is_model kb rep.Chase.final))
    [ Chase.Oblivious; Chase.Skolem; Chase.Restricted; Chase.Frugal; Chase.Core ]

let test_is_model_negative () =
  let kb = kb_sym () in
  Alcotest.(check bool) "facts alone are not a model" false
    (Chase.is_model kb (Kb.facts kb))

(* ------------------------------------------------------------------ *)
(* Properties *)

(* random datalog KBs over a fixed small vocabulary always terminate, and
   the chase result is a model containing the facts *)
let gen_datalog_kb : Kb.t QCheck.arbitrary =
  QCheck.make
    ~print:(fun kb -> Fmt.str "%a" Kb.pp kb)
    QCheck.Gen.(
      let const_gen = map (fun i -> Term.const ("c" ^ string_of_int i)) (int_bound 2) in
      let* facts =
        list_size (int_range 1 4)
          (let* t1 = const_gen and* t2 = const_gen in
           return (Atom.make "p" [ t1; t2 ]))
      in
      let* swap = bool in
      let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" ()
      and z = Term.fresh_var ~hint:"Z" () in
      let rule =
        if swap then
          Rule.make ~name:"sym" ~body:[ Atom.make "p" [ x; y ] ]
            ~head:[ Atom.make "p" [ y; x ] ] ()
        else
          Rule.make ~name:"trans"
            ~body:[ Atom.make "p" [ x; y ]; Atom.make "p" [ y; z ] ]
            ~head:[ Atom.make "p" [ x; z ] ] ()
      in
      return (Kb.of_lists ~facts ~rules:[ rule ]))

let prop_datalog_restricted_terminates_model =
  QCheck.Test.make ~name:"datalog: restricted chase terminates in a model"
    ~count:60 gen_datalog_kb (fun kb ->
      let r = Chase.Variants.restricted kb in
      r.Chase.Variants.outcome = Chase.Variants.Fixpoint
      && Chase.is_model kb
           (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance)

let prop_core_result_is_core_and_model =
  QCheck.Test.make ~name:"datalog: core chase result is a core model"
    ~count:40 gen_datalog_kb (fun kb ->
      let r = Chase.Variants.core kb in
      let final =
        (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance
      in
      r.Chase.Variants.outcome = Chase.Variants.Fixpoint
      && Homo.Core.is_core final
      && Chase.is_model kb final)

let prop_universality_on_terminating =
  QCheck.Test.make
    ~name:"terminating chase result maps into the oblivious saturation"
    ~count:40 gen_datalog_kb (fun kb ->
      let r = Chase.Variants.restricted kb in
      let final =
        (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance
      in
      let ob = Chase.Variants.Baseline.oblivious kb in
      let obfinal =
        List.nth ob.Chase.Variants.Baseline.instances
          (List.length ob.Chase.Variants.Baseline.instances - 1)
      in
      Homo.Hom.maps_to final obfinal && Homo.Hom.maps_to obfinal final)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_datalog_restricted_terminates_model;
      prop_core_result_is_core_and_model;
      prop_universality_on_terminating;
    ]

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "chase.trigger",
      [
        tc "enumeration & satisfaction" test_trigger_basic;
        tc "application" test_trigger_apply;
        tc "fresh nulls" test_trigger_apply_existential_fresh;
        tc "satisfaction after apply" test_trigger_satisfaction_after_apply;
        tc "rename" test_trigger_rename;
        tc "apply requires triggerhood" test_trigger_apply_requires_triggerhood;
      ] );
    ( "chase.derivation",
      [
        tc "start" test_derivation_start;
        tc "extend & access" test_derivation_extend_and_access;
        tc "rejects satisfied trigger" test_derivation_rejects_satisfied_trigger;
        tc "rejects non-retraction" test_derivation_rejects_non_retraction;
        tc "monotone trace is identity" test_sigma_trace_identity_when_monotonic;
      ] );
    ( "chase.restricted",
      [
        tc "terminates on datalog" test_restricted_terminates_sym;
        tc "result universal" test_restricted_result_is_universal_model;
        tc "chain exhausts budget" test_restricted_chain_budget;
        tc "terminated prefix fair" test_restricted_terminated_prefix_is_fair;
        tc "diverges where core wins" test_restricted_nonterminating_on_core_wins_kb;
      ] );
    ( "chase.core",
      [
        tc "terminates where restricted diverges" test_core_terminates_on_core_wins_kb;
        tc "per-round cadence agrees" test_core_every_round_agrees;
        tc "F_i are cores" test_core_instances_are_cores;
        tc "agrees with core of restricted" test_core_on_terminating_equals_core_of_restricted;
        tc "σ_0 simplifies start" test_core_simplify_start;
      ] );
    ( "chase.fairness",
      [
        tc "no debt after fixpoint" test_fairness_debt_empty_on_terminated;
        tc "debt on truncation" test_fairness_debt_nonempty_on_truncation;
        tc "validate engine output" test_validate_accepts_engine_output;
      ] );
    ( "chase.stream",
      [
        tc "terminating stream" test_stream_terminating;
        tc "infinite prefix on demand" test_stream_infinite_prefix;
        tc "stream = eager engine" test_stream_agrees_with_eager;
      ] );
    ( "chase.frugal",
      [
        tc "folds partially satisfied heads" test_frugal_folds_partially_satisfied_heads;
        tc "between restricted and core" test_frugal_between_restricted_and_core;
        tc "simplifications are retractions" test_frugal_simplifications_are_retractions;
        tc "only fresh nulls move" test_frugal_only_moves_fresh_nulls;
      ] );
    ( "chase.baselines",
      [
        tc "oblivious vs skolem" test_oblivious_infinite_where_skolem_finite;
        tc "oblivious datalog" test_oblivious_on_datalog_terminates;
        tc "monotone traces" test_baseline_monotone;
      ] );
    ( "chase.facade",
      [
        tc "all variants on datalog" test_run_facade_all_variants;
        tc "is_model negative" test_is_model_negative;
      ] );
    ("chase.properties", qcheck_cases);
  ]
