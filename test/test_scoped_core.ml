(* Incremental core maintenance (DESIGN.md §9):

   (a) scoped-fold completeness units — deltas that break the core
       property are folded, deltas that keep it are certified, and the
       documented regression instance (an old atom mapping onto a new
       ground delta atom, no fresh null involved) is caught;
   (b) [apply_subst] — a non-idempotent substitution keeps every
       rewritten atom (the suite keeps its historical name,
       [scoped_core.generations]);
   (c) differential runs — after core chases on staircase/elevator
       prefixes and random KBs, every step's (or, per-round cadence,
       every round's) delta-scoped retraction is recomputed next to the
       [~scope:Full] one and the two cores must be isomorphic, over every
       core-cadence engine. *)

open Syntax

let atom p args = Atom.make p args

let budget steps = { Chase.Variants.max_steps = steps; max_atoms = 5_000 }

(* ------------------------------------------------------------------ *)
(* (a) scoped-fold completeness *)

let test_scoped_catches_pair_fold () =
  (* A = {s(x,y), s(y,c), s(c,c), t(y)} is a core; adding D = {t(c)}
     lets y fold onto c (and then x).  No fresh null is involved — only
     the (t(y) → t(c)) pair search can catch it. *)
  let x = Term.fresh_var ~hint:"x" () and y = Term.fresh_var ~hint:"y" () in
  let c = Term.const "c" in
  let a =
    Atomset.of_list
      [ atom "s" [ x; y ]; atom "s" [ y; c ]; atom "s" [ c; c ]; atom "t" [ y ] ]
  in
  Alcotest.(check bool) "A is a core" true (Homo.Core.is_core a);
  let d = atom "t" [ c ] in
  let i = Atomset.add d a in
  let idx = Homo.Instance.of_atomset i in
  let r =
    Homo.Core.retraction_to_core_indexed
      ~scope:(Homo.Core.Delta { fresh = []; added = [ d ] })
      idx
  in
  let core = Subst.apply r i in
  Alcotest.(check int) "core has 2 atoms" 2 (Atomset.cardinal core);
  Alcotest.(check bool) "core is s(c,c), t(c)" true
    (Atomset.equal core (Atomset.of_list [ atom "s" [ c; c ]; d ]))

let test_scoped_catches_fresh_fold () =
  (* A = {u(k0)} plus a delta atom on a fresh null folds back onto k0 *)
  let z = Term.fresh_var ~hint:"z" () in
  let k0 = Term.const "k0" in
  let a = Atomset.of_list [ atom "u" [ k0 ] ] in
  let d = atom "u" [ z ] in
  let idx = Homo.Instance.of_atomset (Atomset.add d a) in
  let r =
    Homo.Core.retraction_to_core_indexed
      ~scope:(Homo.Core.Delta { fresh = [ z ]; added = [ d ] })
      idx
  in
  Alcotest.(check bool) "z folded to k0" true
    (match Subst.find z r with Some t -> Term.equal t k0 | None -> false)

let test_scoped_certifies_real_core () =
  (* a genuinely new ground edge keeps the instance a core: the scoped
     search must certify it with the empty retraction *)
  let e i j =
    atom "e" [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" j) ]
  in
  let a = Atomset.of_list [ e 0 1; e 1 2 ] in
  let d = e 2 3 in
  let idx = Homo.Instance.of_atomset (Atomset.add d a) in
  let r =
    Homo.Core.retraction_to_core_indexed
      ~scope:(Homo.Core.Delta { fresh = []; added = [ d ] })
      idx
  in
  Alcotest.(check bool) "identity retraction" true (Subst.is_empty r)

let test_scoped_agrees_with_full_on_random_deltas () =
  (* grow random instances one atom at a time, keeping the invariant "the
     instance is a core" by retracting after each addition; the scoped
     retraction must always land on a core isomorphic to the full one *)
  let rand =
    let state = ref 20240805 in
    fun bound ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
  in
  let random_atom () =
    let preds = [| ("p", 2); ("q", 2); ("r", 1) |] in
    let p, ar = preds.(rand (Array.length preds)) in
    let term () =
      if rand 3 = 0 then Term.const (Printf.sprintf "c%d" (rand 3))
      else Term.var_of_id ~hint:"w" (820_000 + rand 8)
    in
    atom p (List.init ar (fun _ -> term ()))
  in
  for _case = 1 to 20 do
    let idx = ref (Homo.Instance.of_atomset Atomset.empty) in
    for _step = 1 to 12 do
      let a = random_atom () in
      if not (Homo.Instance.mem !idx a) then begin
        idx := Homo.Instance.add_atoms !idx [ a ];
        let pre = Homo.Instance.atomset !idx in
        let r =
          Homo.Core.retraction_to_core_indexed
            ~scope:(Homo.Core.Delta { fresh = Atom.vars a; added = [ a ] })
            !idx
        in
        let full = Homo.Core.retraction_to_core_indexed ~scope:Homo.Core.Full !idx in
        if
          not
            (Reference.isomorphic (Subst.apply r pre) (Subst.apply full pre))
        then
          Alcotest.failf "scoped core of %a disagrees with the full one"
            Atomset.pp_verbose pre;
        idx := Homo.Instance.apply_subst r !idx
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* (b) apply_subst *)

let test_apply_subst_swaps_content () =
  (* a non-idempotent substitution swapping a 2-cycle must preserve both
     atoms (regression: interleaved remove/add lost one) *)
  let x = Term.fresh_var ~hint:"x" () and y = Term.fresh_var ~hint:"y" () in
  let pair = Atomset.of_list [ atom "e" [ x; y ]; atom "e" [ y; x ] ] in
  let swap = Subst.add x y (Subst.add y x Subst.empty) in
  let idx = Homo.Instance.apply_subst swap (Homo.Instance.of_atomset pair) in
  Alcotest.(check bool) "both atoms survive" true
    (Atomset.equal (Homo.Instance.atomset idx) pair);
  Alcotest.(check bool) "invariants" true (Homo.Instance.invariants_ok idx)

(* ------------------------------------------------------------------ *)
(* (c) differential runs: scoped ≡ full at every step *)

let check_steps name (r : Chase.Variants.run) =
  Alcotest.(check bool)
    (name ^ ": every step's scoped core ≅ full core")
    true
    (Reference.core_steps_agree r.derivation)

let test_scoped_vs_full_runs () =
  check_steps "staircase" (Chase.Variants.core ~budget:(budget 20) (Zoo.Staircase.kb ()));
  check_steps "elevator" (Chase.Variants.core ~budget:(budget 15) (Zoo.Elevator.kb ()));
  List.iteri
    (fun i kb ->
      check_steps (Printf.sprintf "randomkb%d" i)
        (Chase.Variants.core ~budget:(budget 20) kb))
    (Zoo.Randomkb.generate_many ~seed:23 ~count:3 Zoo.Randomkb.default)

let test_audit_core_both_cadences () =
  let kb = Zoo.Staircase.kb () in
  check_steps "staircase" (Chase.Variants.core ~budget:(budget 20) kb);
  let c, journal = Reference.round_core_checker () in
  ignore
    (Chase.Variants.core ~cadence:Chase.Variants.Every_round ~journal
       ~budget:(budget 15) kb);
  Alcotest.(check int) "per round: scoped core ≅ full core" 0
    c.Reference.disagreements;
  Alcotest.(check bool) "per round: rounds were checked" true
    (c.Reference.rounds > 0);
  check_steps "elevator" (Chase.Variants.core ~budget:(budget 15) (Zoo.Elevator.kb ()))

let test_audit_stream_core () =
  match
    List.rev
      (List.of_seq
         (Seq.take 12 (Chase.Variants.stream ~variant:`Core (Zoo.Staircase.kb ()))))
  with
  | d :: _ ->
      Alcotest.(check bool) "stream: every step's scoped core ≅ full core" true
        (Reference.core_steps_agree d)
  | [] -> Alcotest.fail "empty stream"

(* The EGD engine records no steps, only its instance after every TGD
   round and EGD saturation.  A round whose saturation merged nothing
   leaves the last step's retraction in place, which must be a core by
   the full fold search; the trace's round and merge events tell those
   rounds apart. *)
let test_audit_egds_core () =
  let kb = Test_incremental.egd_kb () in
  let events = ref [] in
  let sink =
    Obs.Trace.Custom
      (function
      | Obs.Trace.Round_start _ -> events := `Round :: !events
      | Obs.Trace.Egd_merge _ -> events := `Merge :: !events
      | _ -> ())
  in
  let r =
    Obs.Trace.with_sink sink (fun () ->
        Chase.Variants.Egds.run ~variant:`Core ~budget:(budget 25) kb)
  in
  (* merged.(i): round i+1's saturation merged something *)
  let merged =
    List.fold_left
      (fun acc ev ->
        match (ev, acc) with
        | `Round, _ -> false :: acc
        | `Merge, _ :: rest -> true :: rest
        | `Merge, [] -> acc)
      [] (List.rev !events)
    |> List.rev |> Array.of_list
  in
  let checked = ref 0 in
  List.iteri
    (fun i inst ->
      if i >= 1 && i <= Array.length merged && not merged.(i - 1) then begin
        incr checked;
        Alcotest.(check bool)
          (Printf.sprintf "round %d ends on a core" i)
          true (Homo.Core.is_core inst)
      end)
    r.Chase.Variants.Egds.trace;
  Alcotest.(check bool) "rounds were checked" true (!checked > 0)

let test_audit_randomkb_core () =
  List.iteri
    (fun i kb ->
      check_steps (Printf.sprintf "randomkb%d" i)
        (Chase.Variants.core ~budget:(budget 20) kb))
    (Zoo.Randomkb.generate_many ~seed:31 ~count:4 Zoo.Randomkb.default)

let suites =
  [
    ( "scoped_core.folds",
      [
        Alcotest.test_case "pair fold caught (regression)" `Quick
          test_scoped_catches_pair_fold;
        Alcotest.test_case "fresh-null fold caught" `Quick
          test_scoped_catches_fresh_fold;
        Alcotest.test_case "real core certified" `Quick
          test_scoped_certifies_real_core;
        Alcotest.test_case "random deltas audit clean" `Quick
          test_scoped_agrees_with_full_on_random_deltas;
      ] );
    ( "scoped_core.generations",
      [
        Alcotest.test_case "apply_subst handles swaps" `Quick
          test_apply_subst_swaps_content;
      ] );
    ( "scoped_core.differential",
      [
        Alcotest.test_case "scoped ≡ full core runs" `Quick
          test_scoped_vs_full_runs;
        Alcotest.test_case "audit: core both cadences" `Quick
          test_audit_core_both_cadences;
        Alcotest.test_case "audit: stream core" `Quick test_audit_stream_core;
        Alcotest.test_case "audit: egds core" `Quick test_audit_egds_core;
        Alcotest.test_case "audit: random KBs" `Quick test_audit_randomkb_core;
      ] );
  ]
