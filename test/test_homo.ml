(* Tests for lib/homo: homomorphism search, isomorphism, retraction, cores. *)

open Syntax

let v hint = Term.fresh_var ~hint ()
let x = v "X"
let y = v "Y"
let z = v "Z"
let w = v "W"
let a = Term.const "a"
let b = Term.const "b"
let c = Term.const "c"

let atom p args = Atom.make p args
let aset = Atomset.of_list

let aset_t : Atomset.t Alcotest.testable =
  Alcotest.testable Atomset.pp_verbose Atomset.equal

(* ------------------------------------------------------------------ *)
(* Instance index tests *)

let test_instance_by_pred () =
  let ins = Homo.Instance.of_atomset (aset [ atom "p" [ a; b ]; atom "q" [ a ] ]) in
  Alcotest.(check int) "p bucket" 1
    (List.length (Homo.Instance.atoms_with_pred ins "p"));
  Alcotest.(check int) "missing pred" 0
    (List.length (Homo.Instance.atoms_with_pred ins "r"))

let test_instance_by_pos_term () =
  let ins =
    Homo.Instance.of_atomset
      (aset [ atom "p" [ a; b ]; atom "p" [ a; c ]; atom "p" [ b; c ] ])
  in
  Alcotest.(check int) "a at pos 0" 2
    (List.length (Homo.Instance.atoms_with_pred_pos_term ins "p" 0 a));
  Alcotest.(check int) "c at pos 1" 2
    (List.length (Homo.Instance.atoms_with_pred_pos_term ins "p" 1 c))

let test_instance_candidates_use_constants () =
  let ins =
    Homo.Instance.of_atomset
      (aset [ atom "p" [ a; b ]; atom "p" [ a; c ]; atom "p" [ b; c ] ])
  in
  (* pattern p(b, X): constant at pos 0 narrows to 1 candidate *)
  let n, _ = Reference.flat_selection ins (atom "p" [ b; x ]) Subst.empty in
  Alcotest.(check int) "selective bucket" 1 n

let test_instance_candidates_use_bindings () =
  let ins =
    Homo.Instance.of_atomset
      (aset [ atom "p" [ a; b ]; atom "p" [ a; c ]; atom "p" [ b; c ] ])
  in
  let sigma = Subst.of_list [ (x, b) ] in
  let n, _ = Reference.flat_selection ins (atom "p" [ x; y ]) sigma in
  Alcotest.(check int) "bound var narrows" 1 n

(* ------------------------------------------------------------------ *)
(* Homomorphism tests *)

let find_hom src tgt = Homo.Hom.find_into (aset src) (aset tgt)

let test_hom_identity () =
  let s = [ atom "p" [ x; y ] ] in
  match find_hom s s with
  | None -> Alcotest.fail "identity hom must exist"
  | Some _ -> ()

let test_hom_var_to_const () =
  match find_hom [ atom "p" [ x ] ] [ atom "p" [ a ] ] with
  | Some s -> Alcotest.(check bool) "x->a" true (Term.equal (Subst.apply_term s x) a)
  | None -> Alcotest.fail "hom must exist"

let test_hom_const_mismatch () =
  Alcotest.(check bool) "a cannot map to b" false
    (Homo.Hom.maps_to (aset [ atom "p" [ a ] ]) (aset [ atom "p" [ b ] ]))

let test_hom_join () =
  (* p(x,y), p(y,z) into a path a->b->c: x=a y=b z=c. *)
  match
    find_hom
      [ atom "p" [ x; y ]; atom "p" [ y; z ] ]
      [ atom "p" [ a; b ]; atom "p" [ b; c ] ]
  with
  | Some s ->
      Alcotest.(check bool) "y=b" true (Term.equal (Subst.apply_term s y) b)
  | None -> Alcotest.fail "path hom must exist"

let test_hom_join_fails () =
  (* p(x,y), p(y,z) cannot map into two disconnected edges. *)
  Alcotest.(check bool) "no hom into disconnected edges" false
    (Homo.Hom.maps_to
       (aset [ atom "p" [ x; y ]; atom "p" [ y; z ] ])
       (aset [ atom "p" [ a; b ]; atom "p" [ c; c ] ] |> Atomset.remove (atom "p" [ c; c ])
        |> Atomset.add (atom "q" [ c ])))

let test_hom_cycle_to_loop () =
  (* A 2-cycle maps onto a self-loop (collapsing x,y). *)
  match
    find_hom [ atom "p" [ x; y ]; atom "p" [ y; x ] ] [ atom "p" [ a; a ] ]
  with
  | Some s ->
      Alcotest.(check bool) "x=y=a" true
        (Term.equal (Subst.apply_term s x) a
        && Term.equal (Subst.apply_term s y) a)
  | None -> Alcotest.fail "collapse hom must exist"

let test_hom_loop_not_to_cycle_path () =
  (* A self-loop does not map into a loopless edge. *)
  Alcotest.(check bool) "loop needs loop" false
    (Homo.Hom.maps_to (aset [ atom "p" [ x; x ] ]) (aset [ atom "p" [ a; b ] ]))

let test_hom_seed () =
  let tgt = Homo.Instance.of_atomset (aset [ atom "p" [ a; b ]; atom "p" [ b; c ] ]) in
  let seed = Subst.of_list [ (x, b) ] in
  match Homo.Hom.find ~seed (aset [ atom "p" [ x; y ] ]) tgt with
  | Some s ->
      Alcotest.(check bool) "seed respected" true
        (Term.equal (Subst.apply_term s x) b);
      Alcotest.(check bool) "y=c" true (Term.equal (Subst.apply_term s y) c)
  | None -> Alcotest.fail "seeded hom must exist"

let test_hom_seed_unsatisfiable () =
  let tgt = Homo.Instance.of_atomset (aset [ atom "p" [ a; b ] ]) in
  let seed = Subst.of_list [ (x, b) ] in
  Alcotest.(check bool) "no extension" false
    (Homo.Hom.exists ~seed (aset [ atom "p" [ x; y ] ]) tgt)

let test_hom_all_count () =
  (* p(x,y) into a triangle of edges: 3 homs. *)
  let tgt =
    Homo.Instance.of_atomset
      (aset [ atom "p" [ a; b ]; atom "p" [ b; c ]; atom "p" [ c; a ] ])
  in
  Alcotest.(check int) "3 homs" 3 (Homo.Hom.count (aset [ atom "p" [ x; y ] ]) tgt);
  Alcotest.(check int) "limit 2" 2
    (Homo.Hom.count ~limit:2 (aset [ atom "p" [ x; y ] ]) tgt);
  Alcotest.(check int) "all collects" 3
    (List.length (Homo.Hom.all (aset [ atom "p" [ x; y ] ]) tgt))

let test_hom_injective () =
  (* p(x,y) injectively into {p(a,a)}: impossible; non-injectively: fine. *)
  let tgt = Homo.Instance.of_atomset (aset [ atom "p" [ a; a ] ]) in
  Alcotest.(check bool) "non-injective ok" true
    (Homo.Hom.exists (aset [ atom "p" [ x; y ] ]) tgt);
  Alcotest.(check bool) "injective impossible" false
    (Homo.Hom.exists ~injective:true (aset [ atom "p" [ x; y ] ]) tgt)

let test_hom_injective_respects_constants () =
  (* Injectively, a variable may not land on a constant of the source. *)
  let src = aset [ atom "p" [ x; a ] ] in
  let tgt = Homo.Instance.of_atomset (aset [ atom "p" [ a; a ] ]) in
  Alcotest.(check bool) "x cannot reuse a" false
    (Homo.Hom.exists ~injective:true src tgt)

let test_hom_all_enumeration_order () =
  (* pins the solver's deterministic enumeration order.  The worklist's
     swap-removal must keep selecting the most-constrained live atom with
     ties broken by original rank, so on the "diamond" target the two
     homs of {p(x,y), q(y,z)} enumerate with y ↦ c strictly before
     y ↦ b (the index bucket yields p(a,c) first). *)
  let d = Term.const "d" in
  let src = aset [ atom "p" [ x; y ]; atom "q" [ y; z ] ] in
  let tgt =
    Homo.Instance.of_atomset
      (aset
         [ atom "p" [ a; b ]; atom "p" [ a; c ]; atom "q" [ b; d ];
           atom "q" [ c; d ] ])
  in
  let y_images () =
    List.map
      (fun h -> Fmt.str "%a" Term.pp (Subst.apply_term h y))
      (Homo.Hom.all src tgt)
  in
  Alcotest.(check (list string)) "smart order" [ "c"; "b" ] (y_images ())

let test_extend_via_atom () =
  match Homo.Hom.extend_via_atom Subst.empty (atom "p" [ x; x ]) (atom "p" [ a; b ]) with
  | Some _ -> Alcotest.fail "repeated variable must force equal images"
  | None -> ()

let test_extend_via_atom_pred_mismatch () =
  Alcotest.(check bool) "pred mismatch" true
    (Homo.Hom.extend_via_atom Subst.empty (atom "p" [ x ]) (atom "q" [ a ]) = None)

(* ------------------------------------------------------------------ *)
(* Isomorphism tests *)

let test_iso_renaming () =
  let s1 = aset [ atom "p" [ x; y ]; atom "q" [ y ] ] in
  let s2 = aset [ atom "p" [ z; w ]; atom "q" [ w ] ] in
  Alcotest.(check bool) "isomorphic renamings" true (Homo.Morphism.isomorphic s1 s2)

let test_iso_not_different_shape () =
  let s1 = aset [ atom "p" [ x; y ]; atom "p" [ y; x ] ] in
  let s2 = aset [ atom "p" [ x; y ]; atom "p" [ x; y ] ] in
  (* s2 collapses to one atom: different cardinality *)
  Alcotest.(check bool) "not isomorphic" false (Homo.Morphism.isomorphic s1 s2)

let test_iso_constants_fixed () =
  let s1 = aset [ atom "p" [ a; x ] ] in
  let s2 = aset [ atom "p" [ b; x ] ] in
  Alcotest.(check bool) "different constants, no iso" false
    (Homo.Morphism.isomorphic s1 s2)

let test_iso_cycle_vs_two_loops () =
  (* 2-cycle vs a pair of... both have 2 atoms/2 terms: cycle p(x,y),p(y,x)
     vs p(z,z),p(w,w)?  That second one has 2 atoms, 2 terms too. *)
  let cyc = aset [ atom "p" [ x; y ]; atom "p" [ y; x ] ] in
  let loops = aset [ atom "p" [ z; z ]; atom "p" [ w; w ] ] in
  Alcotest.(check bool) "not isomorphic" false (Homo.Morphism.isomorphic cyc loops)

let test_hom_equivalent_not_isomorphic () =
  (* A loop and a loop plus pendant edge are hom-equivalent, not isomorphic. *)
  let small = aset [ atom "p" [ x; x ] ] in
  let big = aset [ atom "p" [ y; y ]; atom "p" [ y; z ] ] in
  Alcotest.(check bool) "hom equivalent" true (Homo.Morphism.hom_equivalent small big);
  Alcotest.(check bool) "not isomorphic" false (Homo.Morphism.isomorphic small big)

let test_invert_automorphism () =
  let sym = aset [ atom "p" [ x; y ]; atom "p" [ y; x ] ] in
  let swap = Subst.of_list [ (x, y); (y, x) ] in
  let inv = Homo.Morphism.invert_automorphism sym swap in
  Alcotest.(check bool) "inv y = x" true (Term.equal (Subst.apply_term inv y) x)

let test_invert_non_automorphism_raises () =
  let s = aset [ atom "p" [ x; y ] ] in
  let collapse = Subst.of_list [ (x, y) ] in
  (match Homo.Morphism.invert_automorphism s collapse with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "collapse is not an automorphism")

(* ------------------------------------------------------------------ *)
(* Core tests *)

let test_core_of_core_is_identity () =
  (* p(a,b) with constants only: already a core. *)
  let s = aset [ atom "p" [ a; b ] ] in
  Alcotest.(check bool) "ground set is core" true (Homo.Core.is_core s);
  Alcotest.(check aset_t) "unchanged" s (Homo.Core.of_atomset s)

let test_core_collapses_redundant_edge () =
  (* p(a,b) ∧ p(a,y): y folds onto b. *)
  let s = aset [ atom "p" [ a; b ]; atom "p" [ a; y ] ] in
  let core = Homo.Core.of_atomset s in
  Alcotest.(check aset_t) "folded" (aset [ atom "p" [ a; b ] ]) core

let test_core_path_to_loop () =
  (* p(x,y), p(y,y): x folds onto y (the loop); core is the loop alone. *)
  let s = aset [ atom "p" [ x; y ]; atom "p" [ y; y ] ] in
  let core = Homo.Core.of_atomset s in
  Alcotest.(check aset_t) "loop remains" (aset [ atom "p" [ y; y ] ]) core

let test_core_retraction_is_retraction () =
  let s = aset [ atom "p" [ x; y ]; atom "p" [ y; y ]; atom "q" [ x ]; atom "q" [ y ] ] in
  let r = Homo.Core.retraction_to_core s in
  Alcotest.(check bool) "retraction per Section 2" true (Subst.is_retraction_of s r)

let test_core_variable_cycle_is_core () =
  (* A directed 3-cycle of variables with distinct colours is a core. *)
  let s =
    aset
      [
        atom "p" [ x; y ]; atom "p" [ y; z ]; atom "p" [ z; x ];
        atom "cx" [ x ]; atom "cy" [ y ]; atom "cz" [ z ];
      ]
  in
  Alcotest.(check bool) "coloured cycle is core" true (Homo.Core.is_core s)

let test_core_uncoloured_cycle_folds_onto_loop () =
  (* 2-cycle plus loop: whole thing folds onto the loop. *)
  let s = aset [ atom "p" [ x; y ]; atom "p" [ y; x ]; atom "p" [ z; z ] ] in
  let core = Homo.Core.of_atomset s in
  Alcotest.(check aset_t) "loop" (aset [ atom "p" [ z; z ] ]) core

let test_core_strategies_agree () =
  let s =
    aset
      [
        atom "p" [ x; y ]; atom "p" [ y; z ]; atom "p" [ z; z ];
        atom "q" [ x ]; atom "q" [ z ];
      ]
  in
  let c1 = Homo.Core.of_atomset s in
  let c2 = Reference.core_by_atom s in
  Alcotest.(check bool) "per-variable and per-atom folds agree" true
    (Homo.Morphism.isomorphic c1 c2)

let test_core_preserves_hom_equivalence () =
  let s = aset [ atom "p" [ x; y ]; atom "p" [ y; z ]; atom "p" [ z; z ] ] in
  let core = Homo.Core.of_atomset s in
  Alcotest.(check bool) "core ≡hom original" true
    (Homo.Morphism.hom_equivalent s core)

let test_core_idempotent () =
  let s = aset [ atom "p" [ x; y ]; atom "p" [ y; z ]; atom "p" [ z; z ] ] in
  let c1 = Homo.Core.of_atomset s in
  let c2 = Homo.Core.of_atomset c1 in
  Alcotest.(check aset_t) "idempotent" c1 c2

(* ------------------------------------------------------------------ *)
(* CQ theory (Chandra–Merlin) *)

let test_cq_containment () =
  (* q1 = ∃XY p(X,Y) ∧ p(Y,X)  is contained in  q2 = ∃UV p(U,V) *)
  let q1 = Kb.Query.make [ atom "p" [ x; y ]; atom "p" [ y; x ] ] in
  let u = v "U" and w' = v "V" in
  let q2 = Kb.Query.make [ atom "p" [ u; w' ] ] in
  Alcotest.(check bool) "q1 ⊑ q2" true (Homo.Cq.contained_in q1 q2);
  Alcotest.(check bool) "q2 ⋢ q1" false (Homo.Cq.contained_in q2 q1);
  Alcotest.(check bool) "not equivalent" false (Homo.Cq.equivalent q1 q2)

let test_cq_containment_with_constants () =
  let q1 = Kb.Query.make [ atom "p" [ a; b ] ] in
  let q2 = Kb.Query.make [ atom "p" [ x; y ] ] in
  Alcotest.(check bool) "ground ⊑ generic" true (Homo.Cq.contained_in q1 q2);
  Alcotest.(check bool) "generic ⋢ ground" false (Homo.Cq.contained_in q2 q1)

let test_cq_minimize () =
  (* p(X,Y) ∧ p(X,Z): Z folds onto Y — minimal form has one atom *)
  let q = Kb.Query.make [ atom "p" [ x; y ]; atom "p" [ x; z ] ] in
  let m = Homo.Cq.minimize q in
  Alcotest.(check int) "one atom" 1 (Atomset.cardinal (Kb.Query.atoms m));
  Alcotest.(check bool) "equivalent to original" true (Homo.Cq.equivalent q m);
  Alcotest.(check bool) "minimal" true (Homo.Cq.is_minimal m)

let test_cq_answers () =
  let inst =
    aset [ atom "e" [ a; b ]; atom "e" [ b; c ]; atom "e" [ a; y ] ]
  in
  let q = Kb.Query.make ~answers:[ x ] [ atom "e" [ a; x ] ] in
  let all = Homo.Cq.answers ~answer_vars:[ x ] q inst in
  Alcotest.(check int) "two images of x" 2 (List.length all);
  let certain = Homo.Cq.certain_answers ~answer_vars:[ x ] q inst in
  Alcotest.(check int) "one constant answer" 1 (List.length certain);
  Alcotest.(check bool) "answer is b" true
    (List.mem [ b ] certain)

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let gen_small_atomset : Atomset.t QCheck.arbitrary =
  QCheck.make ~print:(Fmt.to_to_string Atomset.pp_verbose)
    QCheck.Gen.(
      let term_gen =
        oneof
          [
            map (fun i -> Term.const ("k" ^ string_of_int i)) (int_bound 2);
            map (fun i -> Term.var_of_id ~hint:"H" (i + 900)) (int_bound 4);
          ]
      in
      let atom_gen =
        let* p = oneofl [ "e"; "u" ] in
        let* k = oneofl [ 1; 2 ] in
        let* args = list_size (return (if p = "u" then 1 else k)) term_gen in
        return (Atom.make p args)
      in
      map Atomset.of_list (list_size (int_range 1 7) atom_gen))

let prop_core_is_core =
  QCheck.Test.make ~name:"core of any atomset is a core" ~count:150
    gen_small_atomset (fun s -> Homo.Core.is_core (Homo.Core.of_atomset s))

let prop_core_retraction_valid =
  QCheck.Test.make ~name:"retraction_to_core returns a retraction" ~count:150
    gen_small_atomset (fun s ->
      Subst.is_retraction_of s (Homo.Core.retraction_to_core s))

let prop_core_hom_equivalent =
  QCheck.Test.make ~name:"core ≡hom original" ~count:100 gen_small_atomset
    (fun s -> Homo.Morphism.hom_equivalent s (Homo.Core.of_atomset s))

let prop_hom_composition_closed =
  QCheck.Test.make ~name:"found homs compose" ~count:100
    (QCheck.pair gen_small_atomset gen_small_atomset) (fun (s1, s2) ->
      match Homo.Hom.find_into s1 s2 with
      | None -> QCheck.assume_fail ()
      | Some h1 -> (
          match Homo.Hom.find_into s2 s1 with
          | None -> QCheck.assume_fail ()
          | Some h2 ->
              (* h2 • h1 must be a homomorphism s1 → s1, i.e. an endo. *)
              Subst.is_endomorphism_of s1
                (Subst.restrict (Atomset.vars s1) (Subst.compose h2 h1))))

let prop_hom_witness_correct =
  QCheck.Test.make ~name:"hom witness maps src into tgt" ~count:200
    (QCheck.pair gen_small_atomset gen_small_atomset) (fun (s1, s2) ->
      match Homo.Hom.find_into s1 s2 with
      | None -> true
      | Some h -> Atomset.subset (Subst.apply h s1) s2)

let prop_iso_reflexive =
  QCheck.Test.make ~name:"isomorphism is reflexive" ~count:100
    gen_small_atomset (fun s -> Homo.Morphism.isomorphic s s)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_core_is_core;
      prop_core_retraction_valid;
      prop_core_hom_equivalent;
      prop_hom_composition_closed;
      prop_hom_witness_correct;
      prop_iso_reflexive;
    ]

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "homo.instance",
      [
        tc "by_pred index" test_instance_by_pred;
        tc "by (pred,pos,term) index" test_instance_by_pos_term;
        tc "candidates via constants" test_instance_candidates_use_constants;
        tc "candidates via bindings" test_instance_candidates_use_bindings;
      ] );
    ( "homo.hom",
      [
        tc "identity" test_hom_identity;
        tc "var to const" test_hom_var_to_const;
        tc "const mismatch" test_hom_const_mismatch;
        tc "join" test_hom_join;
        tc "join fails" test_hom_join_fails;
        tc "cycle collapses onto loop" test_hom_cycle_to_loop;
        tc "loop needs loop" test_hom_loop_not_to_cycle_path;
        tc "seeded search" test_hom_seed;
        tc "seeded unsatisfiable" test_hom_seed_unsatisfiable;
        tc "all & count & limit" test_hom_all_count;
        tc "injective mode" test_hom_injective;
        tc "injective respects constants" test_hom_injective_respects_constants;
        tc "enumeration order pinned" test_hom_all_enumeration_order;
        tc "extend_via_atom repeated var" test_extend_via_atom;
        tc "extend_via_atom pred mismatch" test_extend_via_atom_pred_mismatch;
      ] );
    ( "homo.morphism",
      [
        tc "iso renaming" test_iso_renaming;
        tc "iso rejects different shape" test_iso_not_different_shape;
        tc "iso fixes constants" test_iso_constants_fixed;
        tc "cycle vs loops" test_iso_cycle_vs_two_loops;
        tc "hom-equivalent ≠ isomorphic" test_hom_equivalent_not_isomorphic;
        tc "invert automorphism" test_invert_automorphism;
        tc "invert non-automorphism raises" test_invert_non_automorphism_raises;
      ] );
    ( "homo.core",
      [
        tc "ground set is core" test_core_of_core_is_identity;
        tc "redundant edge folds" test_core_collapses_redundant_edge;
        tc "path folds onto loop" test_core_path_to_loop;
        tc "retraction validity" test_core_retraction_is_retraction;
        tc "coloured cycle is core" test_core_variable_cycle_is_core;
        tc "cycle+loop folds" test_core_uncoloured_cycle_folds_onto_loop;
        tc "strategies agree" test_core_strategies_agree;
        tc "hom-equivalence preserved" test_core_preserves_hom_equivalence;
        tc "idempotent" test_core_idempotent;
      ] );
    ( "homo.cq",
      [
        tc "containment" test_cq_containment;
        tc "containment with constants" test_cq_containment_with_constants;
        tc "minimization" test_cq_minimize;
        tc "answers & certain answers" test_cq_answers;
      ] );
    ("homo.properties", qcheck_cases);
  ]
