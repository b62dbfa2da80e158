(* Differential tests for the incremental instance index and the
   delta-driven (semi-naive) trigger discovery:

   (a) an index grown by random add/simplify sequences equals a fresh
       [of_atomset] rebuild, bucket for bucket (cached cardinalities
       included);
   (b) delta-driven discovery returns the same trigger set as full
       discovery without a delta at every round of real chases: each
       round's boundary is read off the engine's [J_round] journal
       events (or, for engines without a journal, off their recorded
       instances) and both discoveries run on it after the fact. *)

open Syntax

let atom p args = Atom.make p args

(* deterministic LCG so failures reproduce (same recipe as Zoo.Randomkb) *)
let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

(* ------------------------------------------------------------------ *)
(* (a) incremental index ≡ rebuild *)

let random_atom rand =
  let preds = [| ("p", 2); ("q", 2); ("r", 1); ("s", 3) |] in
  let p, ar = preds.(rand (Array.length preds)) in
  let term () =
    if rand 3 = 0 then Term.const (Printf.sprintf "c%d" (rand 5))
    else Term.var_of_id ~hint:"x" (800_000 + rand 12)
  in
  atom p (List.init ar (fun _ -> term ()))

(* a substitution folding one live variable onto another live term *)
let random_fold rand aset =
  match Atomset.vars aset with
  | [] -> None
  | vars ->
      let v = List.nth vars (rand (List.length vars)) in
      let terms = Atomset.terms aset in
      let img = List.nth terms (rand (List.length terms)) in
      if Term.equal v img then None else Some (Subst.singleton v img)

let test_index_incremental_vs_rebuild () =
  for seed = 1 to 25 do
    let rand = lcg (seed * 7919) in
    let idx = ref Homo.Instance.empty in
    let reference = ref Atomset.empty in
    for _step = 1 to 40 do
      (match rand 4 with
      | 0 | 1 ->
          (* add a batch of atoms *)
          let batch = List.init (1 + rand 3) (fun _ -> random_atom rand) in
          idx := Homo.Instance.add_atoms !idx batch;
          reference :=
            List.fold_left (fun s a -> Atomset.add a s) !reference batch
      | 2 ->
          (* simplify: fold a variable onto another term *)
          (match random_fold rand !reference with
          | None -> ()
          | Some s ->
              idx := Homo.Instance.apply_subst s !idx;
              reference := Subst.apply s !reference)
      | _ ->
          (* remove some atom *)
          (match Atomset.to_list !reference with
          | [] -> ()
          | atoms ->
              let a = List.nth atoms (rand (List.length atoms)) in
              idx := Homo.Instance.remove_atoms !idx [ a ];
              reference := Atomset.remove a !reference));
      if not (Atomset.equal (Homo.Instance.atomset !idx) !reference) then
        Alcotest.failf "seed %d: incremental atomset diverged from reference"
          seed;
      if not (Homo.Instance.invariants_ok !idx) then
        Alcotest.failf "seed %d: index buckets diverged from a rebuild" seed
    done
  done

let test_index_add_is_idempotent () =
  let a1 = atom "p" [ Term.const "a"; Term.const "b" ] in
  let idx = Homo.Instance.add_atoms Homo.Instance.empty [ a1; a1; a1 ] in
  Alcotest.(check int) "one atom" 1 (Homo.Instance.cardinal idx);
  Alcotest.(check int) "one candidate" 1
    (List.length (Reference.Boxed.candidates idx a1 Subst.empty));
  Alcotest.(check bool) "invariants" true (Homo.Instance.invariants_ok idx)

let test_candidate_count_matches_candidates () =
  (* the cached count is the selected bucket's length, and the bucket is
     the one the reference solver selects, atom for atom *)
  let rand = lcg 1234 in
  let atoms = List.init 60 (fun _ -> random_atom rand) in
  let idx = Homo.Instance.add_atoms Homo.Instance.empty atoms in
  let x = Term.var_of_id ~hint:"x" 800_001 in
  List.iter
    (fun pattern ->
      List.iter
        (fun sigma ->
          let count, items = Reference.flat_selection idx pattern sigma in
          let what = Fmt.str " for %a" Atom.pp pattern in
          Alcotest.(check int) ("count=|candidates|" ^ what) (List.length items)
            count;
          Alcotest.(check bool) ("reference selects the same bucket" ^ what) true
            (List.equal Atom.equal items
               (Reference.Boxed.candidates idx pattern sigma)))
        [ Subst.empty; Subst.singleton x (Term.const "c1") ])
    (List.map (fun _ -> random_atom rand) (List.init 20 Fun.id))

let test_apply_subst_merges_collisions () =
  (* p(x,b) and p(a,b): folding x↦a must collapse them to ONE atom *)
  let x = Term.var_of_id ~hint:"x" 800_100 in
  let a = Term.const "a" and b = Term.const "b" in
  let idx =
    Homo.Instance.add_atoms Homo.Instance.empty
      [ atom "p" [ x; b ]; atom "p" [ a; b ] ]
  in
  let idx' = Homo.Instance.apply_subst (Subst.singleton x a) idx in
  Alcotest.(check int) "collapsed" 1 (Homo.Instance.cardinal idx');
  Alcotest.(check bool) "invariants" true (Homo.Instance.invariants_ok idx');
  Alcotest.(check int) "x buckets gone" 0
    (List.length (Homo.Instance.atoms_with_term idx' x))

(* ------------------------------------------------------------------ *)
(* (b) delta-driven discovery ≡ full discovery, checked at every round *)

let budget steps = { Chase.Variants.max_steps = steps; max_atoms = 5_000 }

(* Run an engine with a round-checking journal; returns the run and the
   number of round boundaries checked. *)
let checked name kb run =
  let c, journal = Reference.round_checker (Kb.rules kb) in
  let r = run ~journal kb in
  Alcotest.(check int)
    (name ^ ": delta ≡ full discovery at every round")
    0 c.Reference.disagreements;
  (r, c.Reference.rounds)

let restricted steps ~journal kb =
  Chase.Variants.restricted ~budget:(budget steps) ~journal kb

let core ?cadence steps ~journal kb =
  Chase.Variants.core ?cadence ~budget:(budget steps) ~journal kb

let frugal steps ~journal kb =
  Chase.Variants.frugal ~budget:(budget steps) ~journal kb

let check_some_rounds name counts =
  Alcotest.(check bool) (name ^ ": rounds were checked") true
    (List.fold_left ( + ) 0 counts > 0)

let test_audit_staircase () =
  let kb = Zoo.Staircase.kb () in
  let n run name = snd (checked name kb run) in
  check_some_rounds "staircase"
    [
      n (restricted 25) "restricted";
      n (core 20) "core";
      n (frugal 20) "frugal";
      n (core ~cadence:Chase.Variants.Every_round 15) "core per round";
    ]

let test_audit_elevator () =
  let kb = Zoo.Elevator.kb () in
  let n run name = snd (checked name kb run) in
  check_some_rounds "elevator"
    [ n (restricted 25) "restricted"; n (core 20) "core" ]

let test_audit_randomkb () =
  List.iteri
    (fun i kb ->
      let name = Printf.sprintf "randomkb%d" i in
      ignore (checked (name ^ " restricted") kb (restricted 40));
      if i < 3 then ignore (checked (name ^ " core") kb (core 25)))
    (Zoo.Randomkb.generate_many ~seed:42 ~count:6 Zoo.Randomkb.default)

(* The stream has no journal: a round starts while the consumer forces
   the next prefix, and its discovery runs on the last prefix the
   consumer already holds, so the boundaries are the prefixes after
   which a [Round_start] event is seen.  The stream ending is one more
   (empty) discovery. *)
let stream_rounds_agree kb n =
  let rules = Kb.rules kb in
  let started = ref false in
  let sink =
    Obs.Trace.Custom (function Obs.Trace.Round_start _ -> started := true | _ -> ())
  in
  let disagreements = ref 0 and rounds = ref 0 in
  let boundary prev current =
    incr rounds;
    match prev with
    | Some prev when not (Reference.discovery_agrees rules ~prev ~current) ->
        incr disagreements
    | _ -> ()
  in
  Obs.Trace.with_sink sink (fun () ->
      let rec go seq prev last k =
        if k > 0 then begin
          started := false;
          match seq () with
          | Seq.Nil -> Option.iter (boundary prev) last
          | Seq.Cons (d, rest) ->
              let prev =
                match last with
                | Some l when !started ->
                    boundary prev l;
                    Some l
                | _ -> prev
              in
              go rest prev
                (Some (Chase.Derivation.last d).Chase.Derivation.instance)
                (k - 1)
        end
      in
      go (Chase.Variants.stream ~variant:`Core kb) None None n);
  Alcotest.(check int) "stream: delta ≡ full discovery at every round" 0
    !disagreements;
  Alcotest.(check bool) "stream: rounds were checked" true (!rounds > 1)

(* The baselines enumerate without the satisfaction filter, so the delta
   law holds between any two of their instances: check consecutive
   ones. *)
let baseline_agrees kb (t : Chase.Variants.Baseline.trace) =
  let rules = Kb.rules kb in
  let rec pairs = function
    | prev :: (current :: _ as rest) ->
        Reference.discover_all_agrees rules ~prev ~current && pairs rest
    | _ -> true
  in
  Alcotest.(check bool) "baseline: delta enumeration ≡ full, touching the delta"
    true (pairs t.instances)

let test_audit_stream_and_baselines () =
  let kb = Zoo.Staircase.kb () in
  stream_rounds_agree kb 15;
  baseline_agrees kb (Chase.Variants.Baseline.oblivious ~budget:(budget 30) kb);
  baseline_agrees kb (Chase.Variants.Baseline.skolem ~budget:(budget 30) kb);
  List.iter
    (fun kb ->
      baseline_agrees kb
        (Chase.Variants.Baseline.oblivious ~budget:(budget 60) kb);
      baseline_agrees kb (Chase.Variants.Baseline.skolem ~budget:(budget 60) kb))
    (Zoo.Randomkb.generate_many ~seed:7 ~count:3 Zoo.Randomkb.datalog)

(* FD over emp + a TGD feeding it, so EGD unifications interleave with
   delta-driven TGD rounds *)
let egd_kb () =
  let x = Term.fresh_var ~hint:"X" ()
  and y = Term.fresh_var ~hint:"Y" ()
  and z = Term.fresh_var ~hint:"Z" () in
  let fd =
    Egd.make ~name:"fd" ~body:[ atom "emp" [ x; y ]; atom "emp" [ x; z ] ] y z
  in
  let x2 = Term.fresh_var ~hint:"X" () and w = Term.fresh_var ~hint:"W" () in
  let rule =
    Rule.make ~name:"hire"
      ~body:[ atom "dept" [ x2 ] ]
      ~head:[ atom "emp" [ x2; w ]; atom "dept" [ w ] ]
      ()
  in
  Kb.with_egds [ fd ]
    (Kb.of_lists
       ~facts:
         [
           atom "dept" [ Term.const "d0" ];
           atom "emp" [ Term.const "d0"; Term.const "e0" ];
         ]
       ~rules:[ rule ])

(* The EGD engine records its instance after every TGD round and EGD
   saturation; consecutive records are one round's discovery boundary
   and the next's.  A stopped run's last record may be mid-phase. *)
let test_audit_egds () =
  let kb = egd_kb () in
  List.iter
    (fun variant ->
      let r = Chase.Variants.Egds.run ~variant ~budget:(budget 30) kb in
      let boundaries =
        match r.Chase.Variants.Egds.outcome with
        | Chase.Variants.Egds.Terminated -> r.trace
        | _ -> List.filteri (fun i _ -> i < List.length r.trace - 1) r.trace
      in
      let rec pairs n = function
        | prev :: (current :: _ as rest) ->
            Alcotest.(check bool) "egds: delta ≡ full discovery" true
              (Reference.discovery_agrees (Kb.rules kb) ~prev ~current);
            pairs (n + 1) rest
        | _ -> n
      in
      Alcotest.(check bool) "egds: rounds were checked" true
        (pairs 0 boundaries > 0))
    [ `Restricted; `Core ]

(* whole runs: every round of the core chase on the zoo and random KBs *)
let test_delta_vs_snapshot_runs () =
  let counts =
    [
      snd (checked "staircase" (Zoo.Staircase.kb ()) (core 20));
      snd (checked "elevator" (Zoo.Elevator.kb ()) (core 15));
    ]
    @ List.mapi
        (fun i kb -> snd (checked (Printf.sprintf "randomkb%d" i) kb (core 25)))
        (Zoo.Randomkb.generate_many ~seed:11 ~count:3 Zoo.Randomkb.default)
  in
  check_some_rounds "core runs" counts

let test_delta_vs_snapshot_restricted_termination () =
  (* terminating datalog KBs: every round checked, and full discovery on
     the fixpoint finds nothing either *)
  List.iter
    (fun kb ->
      let r, _ = checked "datalog" kb (restricted 500) in
      Alcotest.(check bool) "terminated" true
        (r.Chase.Variants.outcome = Chase.Variants.Fixpoint);
      let fin =
        (Chase.Derivation.last r.Chase.Variants.derivation)
          .Chase.Derivation.instance
      in
      Alcotest.(check int) "no active trigger at the fixpoint" 0
        (List.length
           (Chase.Trigger.discover (Kb.rules kb) (Homo.Instance.of_atomset fin))))
    (Zoo.Randomkb.generate_many ~seed:5 ~count:4 Zoo.Randomkb.datalog)

let suites =
  [
    ( "incremental.index",
      [
        Alcotest.test_case "random ops ≡ rebuild" `Quick
          test_index_incremental_vs_rebuild;
        Alcotest.test_case "add is idempotent" `Quick
          test_index_add_is_idempotent;
        Alcotest.test_case "candidate_count = |candidates|" `Quick
          test_candidate_count_matches_candidates;
        Alcotest.test_case "apply_subst merges collisions" `Quick
          test_apply_subst_merges_collisions;
      ] );
    ( "incremental.triggers",
      [
        Alcotest.test_case "audit: staircase" `Quick test_audit_staircase;
        Alcotest.test_case "audit: elevator" `Quick test_audit_elevator;
        Alcotest.test_case "audit: random KBs" `Quick test_audit_randomkb;
        Alcotest.test_case "audit: stream & baselines" `Quick
          test_audit_stream_and_baselines;
        Alcotest.test_case "audit: egds" `Quick test_audit_egds;
        Alcotest.test_case "delta ≡ snapshot core runs" `Quick
          test_delta_vs_snapshot_runs;
        Alcotest.test_case "delta ≡ snapshot fixpoints" `Quick
          test_delta_vs_snapshot_restricted_termination;
      ] );
  ]
