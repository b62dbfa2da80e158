(* Property-based tests over a small hand-rolled framework: explicit
   generators, greedy shrinking and a printable counter-example — no
   dependency on qcheck's combinators, so every law's search space and
   shrink order is spelled out here.

   Laws (each over 200+ random cases):
     - substitution composition is associative (extensionally);
     - Dlgp print ∘ parse is a fixpoint on printer output, and parsing
       preserves the facts up to isomorphism;
     - the core is idempotent: core(core(F)) = core(F), is_core holds,
       and the core stays hom-equivalent to F;
     - the restricted chase on datalog KBs is invariant under renaming
       the rules apart (unique least fixpoint);
     - delta-scoped core maintenance agrees with the exhaustive fold
       search: every step of the core chase on random KBs, recomputed
       after the run with [~scope:Full], lands on an isomorphic core;
     - trace events survive the JSONL round trip (Obs.Trace.of_json_line
       ∘ to_json = Some);
     - flat interned codes (DESIGN.md §12): decode ∘ encode = id up to
       Atom.equal, flat equal/compare/hash agree with the boxed ones,
       flat substitution application agrees with Subst.apply_atom, and
       the solver returns the boxed reference solver's witnesses
       (test/reference.ml), on random inputs and on the hom questions
       every chase engine asks of the instances it builds;
     - the analyzer (DESIGN.md §13) respects the class-implication
       lattice on random KBs, never certifies termination the
       restricted chase does not deliver, and rejects every near-miss
       zoo mutant from exactly the class its one-edit mutation
       targets;
     - the serve wire codec (DESIGN.md §15): frame decode ∘ encode =
       id on arbitrary (binary) frames, every strict prefix of a
       well-formed frame is Truncated, oversized length prefixes are
       rejected with the offending length, decode is total on random
       bytes, and the request grammar's parse ∘ print = id;
     - the WAL codec (DESIGN.md §16): record decode ∘ encode = id,
       every strict prefix of a record or frame is an error (torn, for
       frames), single-byte flips never pass the CRC, and both decoders
       are total on random bytes. *)

open Syntax

(* ------------------------------------------------------------------ *)
(* Framework *)

type 'a arbitrary = {
  gen : Random.State.t -> 'a;
  shrink : 'a -> 'a list;
  print : 'a -> string;
}

let check ?(count = 250) name arb prop =
  Alcotest.test_case name `Quick (fun () ->
      (* seeded per law: failures reproduce deterministically *)
      let rng = Random.State.make [| 0x5eed; Hashtbl.hash name |] in
      let holds x = try prop x with _ -> false in
      for case = 1 to count do
        let x0 = arb.gen rng in
        if not (holds x0) then begin
          (* greedy first-failing-candidate descent, bounded fuel *)
          let rec minimise fuel x =
            if fuel <= 0 then x
            else
              match List.find_opt (fun y -> not (holds y)) (arb.shrink x) with
              | Some y -> minimise (fuel - 1) y
              | None -> x
          in
          let x = minimise 500 x0 in
          Alcotest.failf "%s: falsified at case %d/%d@.shrunk counter-example: %s"
            name case count (arb.print x)
        end
      done)

let int_in rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* remove the i-th element, for one-smaller shrink candidates *)
let without_each l =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l

(* ------------------------------------------------------------------ *)
(* Law 1: substitution composition associativity *)

let var_pool = List.init 8 (fun i -> Term.var_of_id ~hint:"P" (920_000 + i))

let const_pool = List.init 4 (fun i -> Term.const (Printf.sprintf "pc%d" i))

let term_pool = var_pool @ const_pool

let gen_bindings rng =
  List.init (int_in rng 0 5) (fun _ -> (pick rng var_pool, pick rng term_pool))

let subst_of bindings =
  List.fold_left (fun s (x, t) -> Subst.add x t s) Subst.empty bindings

let pp_bindings b = Fmt.str "%a" Subst.pp_debug (subst_of b)

let subst_triple : (_ * _ * _) arbitrary =
  {
    gen = (fun rng -> (gen_bindings rng, gen_bindings rng, gen_bindings rng));
    shrink =
      (fun (b1, b2, b3) ->
        List.map (fun b1' -> (b1', b2, b3)) (without_each b1)
        @ List.map (fun b2' -> (b1, b2', b3)) (without_each b2)
        @ List.map (fun b3' -> (b1, b2, b3')) (without_each b3));
    print =
      (fun (b1, b2, b3) ->
        Fmt.str "σ1=%s σ2=%s σ3=%s" (pp_bindings b1) (pp_bindings b2)
          (pp_bindings b3));
  }

let compose_associative (b1, b2, b3) =
  let s1 = subst_of b1 and s2 = subst_of b2 and s3 = subst_of b3 in
  let lhs = Subst.compose s3 (Subst.compose s2 s1) in
  let rhs = Subst.compose (Subst.compose s3 s2) s1 in
  (* extensional equality: σ⁺ agrees on every pool term (and hence on
     every term, both sides being the identity outside the pool vars) *)
  List.for_all
    (fun t -> Term.equal (Subst.apply_term lhs t) (Subst.apply_term rhs t))
    term_pool

(* ------------------------------------------------------------------ *)
(* Law 2: Dlgp print/parse round trip *)

type dlgp_case = { seed : int; n_facts : int; n_rules : int }

let dlgp_case : dlgp_case arbitrary =
  {
    gen =
      (fun rng ->
        {
          seed = Random.State.int rng 1_000_000;
          n_facts = int_in rng 1 8;
          n_rules = int_in rng 0 5;
        });
    shrink =
      (fun c ->
        (if c.n_rules > 0 then [ { c with n_rules = c.n_rules - 1 } ] else [])
        @ (if c.n_facts > 1 then [ { c with n_facts = c.n_facts - 1 } ] else [])
        @ if c.seed > 0 then [ { c with seed = c.seed / 2 } ] else []);
    print =
      (fun c ->
        Fmt.str "seed=%d n_facts=%d n_rules=%d" c.seed c.n_facts c.n_rules);
  }

let doc_of_kb kb =
  {
    Dlgp.facts = Kb.facts kb;
    rules = Kb.rules kb;
    egds = Kb.egds kb;
    queries = [];
    constraints = [];
  }

let dlgp_roundtrip c =
  let kb =
    Zoo.Randomkb.generate ~seed:c.seed
      { Zoo.Randomkb.default with n_facts = c.n_facts; n_rules = c.n_rules }
  in
  let s1 = Fmt.str "%a" Dlgp.print_document (doc_of_kb kb) in
  match Dlgp.parse_string s1 with
  | Error _ -> false
  | Ok doc2 -> (
      let s2 = Fmt.str "%a" Dlgp.print_document doc2 in
      (* printing is a right inverse of parsing: one more trip is the
         identity on the text, and the facts survive up to isomorphism *)
      match Dlgp.parse_string s2 with
      | Error _ -> false
      | Ok doc3 ->
          String.equal s2 (Fmt.str "%a" Dlgp.print_document doc3)
          && Homo.Morphism.isomorphic (Kb.facts kb) doc2.Dlgp.facts
          && List.length doc2.Dlgp.rules = List.length (Kb.rules kb))

(* ------------------------------------------------------------------ *)
(* Law 3: core idempotence *)

let core_vars = List.init 6 (fun i -> Term.var_of_id ~hint:"C" (921_000 + i))

let core_terms = core_vars @ List.init 3 (fun i -> Term.const (Printf.sprintf "kc%d" i))

let gen_atom rng =
  match int_in rng 0 3 with
  | 0 -> Atom.make "u" [ pick rng core_terms ]
  | 1 -> Atom.make "p" [ pick rng core_terms; pick rng core_terms ]
  | 2 -> Atom.make "q" [ pick rng core_terms; pick rng core_terms ]
  | _ -> Atom.make "r" [ pick rng core_terms; pick rng core_terms ]

let atom_list : Atom.t list arbitrary =
  {
    gen = (fun rng -> List.init (int_in rng 1 10) (fun _ -> gen_atom rng));
    shrink = without_each;
    print =
      (fun atoms ->
        Fmt.str "%a" Atomset.pp_verbose (Atomset.of_list atoms));
  }

let core_idempotent atoms =
  let a = Atomset.of_list atoms in
  let c = Homo.Core.of_atomset a in
  Homo.Core.is_core c
  && Atomset.equal (Homo.Core.of_atomset c) c
  && Homo.Morphism.hom_equivalent a c

(* ------------------------------------------------------------------ *)
(* Law 4: restricted-chase invariance under renaming (datalog) *)

let seed_arb : int arbitrary =
  {
    gen = (fun rng -> Random.State.int rng 1_000_000);
    shrink = (fun s -> if s > 0 then [ s / 2; s - 1 ] else []);
    print = string_of_int;
  }

let chase_renaming_invariant seed =
  let kb = Zoo.Randomkb.generate ~seed Zoo.Randomkb.datalog in
  let budget = { Chase.Variants.max_steps = 400; max_atoms = 4_000 } in
  let r1 = Chase.run ~budget Chase.Restricted kb in
  let kb' =
    Kb.make ~facts:(Kb.facts kb)
      ~rules:(List.map Rule.rename_apart (Kb.rules kb))
  in
  let r2 = Chase.run ~budget Chase.Restricted kb' in
  if
    not
      (Resilience.terminated r1.Chase.outcome
      && Resilience.terminated r2.Chase.outcome)
  then
    (* budget runs carry no invariance guarantee; datalog KBs of this
       size terminate, so this branch stays unexercised in practice *)
    true
  else
    (* datalog: the restricted chase computes the unique least fixpoint,
       so renaming the rules apart cannot change the final instance *)
    Atomset.equal r1.Chase.final r2.Chase.final

(* ------------------------------------------------------------------ *)
(* Law 5: delta-scoped core maintenance never diverges from the full
   search.  After the run, every step's pre-instance is retracted again,
   once scoped by that step's delta and once with [~scope:Full]; the two
   cores, and the engine's own [F_i], must be isomorphic — the scoped ≡
   full law (DESIGN.md §9). *)

type scoped_case = { cseed : int; csteps : int }

let scoped_case : scoped_case arbitrary =
  {
    gen =
      (fun rng ->
        { cseed = Random.State.int rng 1_000_000; csteps = int_in rng 4 14 });
    shrink =
      (fun c ->
        (if c.csteps > 1 then [ { c with csteps = c.csteps - 1 } ] else [])
        @ if c.cseed > 0 then [ { c with cseed = c.cseed / 2 } ] else []);
    print = (fun c -> Fmt.str "seed=%d steps=%d" c.cseed c.csteps);
  }

let scoped_core_agrees c =
  let kb = Zoo.Randomkb.generate ~seed:c.cseed Zoo.Randomkb.default in
  let budget = { Chase.Variants.max_steps = c.csteps; max_atoms = 2_000 } in
  Reference.core_steps_agree (Chase.Variants.core ~budget kb).derivation

(* ------------------------------------------------------------------ *)
(* Law 6: trace events survive the JSONL round trip *)

let strings =
  [ ""; "core"; "Rh1"; "a b"; "quo\"te"; "back\\slash"; "uni_x"; "r:1" ]

let gen_small rng = int_in rng 0 50

let gen_event rng : Obs.Trace.event =
  match int_in rng 0 15 with
  | 0 ->
      Round_start
        { engine = pick rng strings; round = gen_small rng; size = gen_small rng }
  | 1 ->
      Trigger_found
        { engine = pick rng strings; found = gen_small rng; size = gen_small rng }
  | 2 ->
      Trigger_applied
        {
          engine = pick rng strings;
          step = gen_small rng;
          rule = pick rng strings;
          produced = gen_small rng;
          size = gen_small rng;
        }
  | 3 ->
      Retract
        {
          engine = pick rng strings;
          step = gen_small rng;
          removed = gen_small rng;
          size = gen_small rng;
        }
  | 4 ->
      Egd_merge
        { engine = pick rng strings; step = gen_small rng; size = gen_small rng }
  | 5 ->
      Hom_backtrack
        {
          backtracks = gen_small rng;
          src_atoms = gen_small rng;
          tgt_atoms = gen_small rng;
        }
  | 6 ->
      Core_scoped_fold
        {
          candidates = gen_small rng;
          folded = Random.State.bool rng;
          size = gen_small rng;
        }
  | 7 ->
      Tw_decomposed
        {
          vertices = gen_small rng;
          width = gen_small rng - 1;
          exact = Random.State.bool rng;
        }
  | 8 ->
      Par_fanout
        {
          site = pick rng strings;
          tasks = gen_small rng;
          jobs = 1 + int_in rng 0 7;
        }
  | 9 ->
      Batch_task
        {
          site = pick rng strings;
          index = gen_small rng;
          slot = int_in rng 0 7;
          ms = gen_small rng;
        }
  | 10 -> Deadline_hit { engine = pick rng strings; step = gen_small rng }
  | 11 ->
      Session_event
        {
          action = pick rng strings;
          session = pick rng strings;
          generation = gen_small rng;
        }
  | 12 -> Conn_event { action = pick rng strings; conn = gen_small rng - 1 }
  | 13 -> Wal_rotate { segment = pick rng strings; lsn = gen_small rng }
  | 14 ->
      Snapshot_written
        {
          path = pick rng strings;
          lsn = gen_small rng;
          records = gen_small rng;
        }
  | _ ->
      Recovery_replayed
        {
          dir = pick rng strings;
          records = gen_small rng;
          torn = Random.State.bool rng;
        }

let shrink_event (e : Obs.Trace.event) : Obs.Trace.event list =
  (* shrink every integer field toward 0 and every string to "" *)
  let half n = if n = 0 then [] else [ n / 2 ] in
  let str s = if s = "" then [] else [ "" ] in
  match e with
  | Round_start f ->
      List.map (fun engine -> Obs.Trace.Round_start { f with engine }) (str f.engine)
      @ List.map (fun round -> Obs.Trace.Round_start { f with round }) (half f.round)
      @ List.map (fun size -> Obs.Trace.Round_start { f with size }) (half f.size)
  | Trigger_found f ->
      List.map (fun engine -> Obs.Trace.Trigger_found { f with engine }) (str f.engine)
      @ List.map (fun found -> Obs.Trace.Trigger_found { f with found }) (half f.found)
  | Trigger_applied f ->
      List.map (fun engine -> Obs.Trace.Trigger_applied { f with engine }) (str f.engine)
      @ List.map (fun rule -> Obs.Trace.Trigger_applied { f with rule }) (str f.rule)
      @ List.map (fun step -> Obs.Trace.Trigger_applied { f with step }) (half f.step)
  | Retract f ->
      List.map (fun engine -> Obs.Trace.Retract { f with engine }) (str f.engine)
      @ List.map (fun removed -> Obs.Trace.Retract { f with removed }) (half f.removed)
  | Egd_merge f ->
      List.map (fun engine -> Obs.Trace.Egd_merge { f with engine }) (str f.engine)
      @ List.map (fun step -> Obs.Trace.Egd_merge { f with step }) (half f.step)
  | Hom_backtrack f ->
      List.map (fun backtracks -> Obs.Trace.Hom_backtrack { f with backtracks })
        (half f.backtracks)
  | Core_scoped_fold f ->
      List.map (fun candidates -> Obs.Trace.Core_scoped_fold { f with candidates })
        (half f.candidates)
      @ List.map (fun size -> Obs.Trace.Core_scoped_fold { f with size }) (half f.size)
  | Tw_decomposed f ->
      List.map (fun vertices -> Obs.Trace.Tw_decomposed { f with vertices })
        (half f.vertices)
  | Par_fanout f ->
      List.map (fun site -> Obs.Trace.Par_fanout { f with site }) (str f.site)
      @ List.map (fun tasks -> Obs.Trace.Par_fanout { f with tasks })
          (half f.tasks)
  | Batch_task f ->
      List.map (fun site -> Obs.Trace.Batch_task { f with site }) (str f.site)
      @ List.map (fun index -> Obs.Trace.Batch_task { f with index })
          (half f.index)
      @ List.map (fun ms -> Obs.Trace.Batch_task { f with ms }) (half f.ms)
  | Deadline_hit f ->
      List.map (fun engine -> Obs.Trace.Deadline_hit { f with engine }) (str f.engine)
      @ List.map (fun step -> Obs.Trace.Deadline_hit { f with step }) (half f.step)
  | Session_event f ->
      List.map (fun action -> Obs.Trace.Session_event { f with action }) (str f.action)
      @ List.map (fun session -> Obs.Trace.Session_event { f with session })
          (str f.session)
      @ List.map (fun generation -> Obs.Trace.Session_event { f with generation })
          (half f.generation)
  | Conn_event f ->
      List.map (fun action -> Obs.Trace.Conn_event { f with action }) (str f.action)
      @ List.map (fun conn -> Obs.Trace.Conn_event { f with conn }) (half f.conn)
  | Wal_rotate f ->
      List.map (fun segment -> Obs.Trace.Wal_rotate { f with segment })
        (str f.segment)
      @ List.map (fun lsn -> Obs.Trace.Wal_rotate { f with lsn }) (half f.lsn)
  | Snapshot_written f ->
      List.map (fun path -> Obs.Trace.Snapshot_written { f with path })
        (str f.path)
      @ List.map (fun lsn -> Obs.Trace.Snapshot_written { f with lsn })
          (half f.lsn)
      @ List.map (fun records -> Obs.Trace.Snapshot_written { f with records })
          (half f.records)
  | Recovery_replayed f ->
      List.map (fun dir -> Obs.Trace.Recovery_replayed { f with dir })
        (str f.dir)
      @ List.map (fun records -> Obs.Trace.Recovery_replayed { f with records })
          (half f.records)

let event_arb : Obs.Trace.event arbitrary =
  {
    gen = gen_event;
    shrink = shrink_event;
    print = (fun e -> Obs.Trace.to_json e);
  }

let json_roundtrip e =
  match Obs.Trace.of_json_line (Obs.Trace.to_json e) with
  | Some e' -> e' = e
  | None -> false

(* ------------------------------------------------------------------ *)
(* Law 7: parallel exact treewidth ≡ sequential exact treewidth.  The
   parallel branch-and-bound shares only an Atomic incumbent between the
   root-branch tasks, so it must land on the very same exact minimum the
   single-domain search finds — on every graph (DESIGN.md §10). *)

type tw_case = { gseed : int; g_n : int; g_edges : int }

let tw_case : tw_case arbitrary =
  {
    gen =
      (fun rng ->
        let n = int_in rng 2 11 in
        {
          gseed = Random.State.int rng 1_000_000;
          g_n = n;
          g_edges = int_in rng 1 (n * (n - 1) / 2);
        });
    shrink =
      (fun c ->
        (if c.g_n > 2 then [ { c with g_n = c.g_n - 1 } ] else [])
        @ (if c.g_edges > 1 then [ { c with g_edges = c.g_edges - 1 } ] else [])
        @ if c.gseed > 0 then [ { c with gseed = c.gseed / 2 } ] else []);
    print = (fun c -> Fmt.str "seed=%d n=%d edges=%d" c.gseed c.g_n c.g_edges);
  }

let random_graph_atoms c =
  (* [g_edges] random edges over [g_n] named vertices, as binary atoms;
     the primal graph of the atomset is exactly that graph *)
  let rng = Random.State.make [| 0x97a4; c.gseed |] in
  let v i = Term.const (Printf.sprintf "tv%d" i) in
  let atoms =
    List.init c.g_edges (fun _ ->
        let i = Random.State.int rng c.g_n in
        let j = Random.State.int rng c.g_n in
        if i = j then None else Some (Atom.make "e" [ v i; v j ]))
  in
  Atomset.of_list (List.filter_map Fun.id atoms)

let parallel_tw_agrees c =
  let atoms = random_graph_atoms c in
  if Atomset.is_empty atoms then true
  else
    let seq = Par.with_jobs 1 (fun () -> Treewidth.exact atoms) in
    let par = Par.with_jobs 4 (fun () -> Treewidth.exact atoms) in
    seq = par

(* Law 8: the parallel core chase never diverges — law 5 extended to
   jobs > 1: the chase and both re-folds fan their seeded searches out
   over a live pool. *)
let scoped_core_agrees_parallel c =
  Par.with_jobs 4 (fun () -> scoped_core_agrees c)

(* ------------------------------------------------------------------ *)
(* Law 9: flat codes round-trip and agree with boxed equality/hash
   (DESIGN.md §12).  [decode ∘ encode] is the identity up to
   [Atom.equal] (variable hints are not stored flat, and equality
   ignores them), and through [encode] the flat [equal]/[compare]/[hash]
   are exactly [Atom.equal] plus a lawful hash for it. *)

let gen_flat_atom rng =
  (* mixed arities over the shared var/const pools, nullary included so
     zero-length args arrays are exercised *)
  match int_in rng 0 3 with
  | 0 -> Atom.make "fz" []
  | 1 -> Atom.make "fu" [ pick rng term_pool ]
  | 2 -> Atom.make "fp" [ pick rng term_pool; pick rng term_pool ]
  | _ ->
      Atom.make "ft"
        [ pick rng term_pool; pick rng term_pool; pick rng term_pool ]

let atom_pair : (Atom.t * Atom.t) arbitrary =
  {
    gen = (fun rng -> (gen_flat_atom rng, gen_flat_atom rng));
    shrink = (fun _ -> []);
    print = (fun (a, b) -> Fmt.str "a=%a b=%a" Atom.pp a Atom.pp b);
  }

let flat_codes_lawful (a, b) =
  let fa = Flat.encode a and fb = Flat.encode b in
  Atom.equal (Flat.decode fa) a
  && Flat.equal fa (Flat.encode a)
  && Flat.equal fa (Flat.encode (Flat.decode fa))
  && Flat.equal fa fb = Atom.equal a b
  && (Flat.compare fa fb = 0) = Flat.equal fa fb
  && ((not (Flat.equal fa fb)) || Flat.hash fa = Flat.hash fb)

(* ------------------------------------------------------------------ *)
(* Law 10: flat substitution application agrees with the boxed one
   through [encode], and [apply_into]'s changed flag is exact: it
   reports true iff some code moved, i.e. iff σ(a) ≠ a. *)

type fsub_case = { fs_atom : Atom.t; fs_bindings : (Term.t * Term.t) list }

let fsub_case : fsub_case arbitrary =
  {
    gen =
      (fun rng ->
        { fs_atom = gen_flat_atom rng; fs_bindings = gen_bindings rng });
    shrink =
      (fun c ->
        List.map
          (fun b -> { c with fs_bindings = b })
          (without_each c.fs_bindings));
    print =
      (fun c ->
        Fmt.str "atom=%a σ=%s" Atom.pp c.fs_atom (pp_bindings c.fs_bindings));
  }

let flat_subst_agrees c =
  let sigma = subst_of c.fs_bindings in
  let fs = Flat.Subst.of_subst sigma in
  let fa = Flat.encode c.fs_atom in
  let boxed = Subst.apply_atom sigma c.fs_atom in
  let applied = Flat.Subst.apply fs fa in
  (* over-long scratch: only the arity-length prefix is meaningful *)
  let scratch = Array.make (Flat.arity fa + 2) Flat.no_code in
  let changed = Flat.Subst.apply_into fs ~args:(Flat.args fa) ~scratch in
  let prefix_agrees =
    let aargs = Flat.args applied in
    let ok = ref true in
    Array.iteri (fun i v -> if scratch.(i) <> v then ok := false) aargs;
    !ok
  in
  Flat.equal applied (Flat.encode boxed)
  && changed = not (Flat.equal applied fa)
  && prefix_agrees

(* ------------------------------------------------------------------ *)
(* Law 11: the solver is observationally the boxed reference solver
   (test/reference.ml).  Both perform the same search (same selection,
   same candidate order), so [Hom.all] must return the same witnesses in
   the same order — injective mode included — on every random src/tgt
   pair. *)

type hom_case = { h_src : Atom.t list; h_tgt : Atom.t list; h_inj : bool }

let hom_case : hom_case arbitrary =
  {
    gen =
      (fun rng ->
        {
          h_src = List.init (int_in rng 1 5) (fun _ -> gen_atom rng);
          h_tgt = List.init (int_in rng 1 12) (fun _ -> gen_atom rng);
          h_inj = Random.State.bool rng;
        });
    shrink =
      (fun c ->
        List.map (fun s -> { c with h_src = s }) (without_each c.h_src)
        @ List.map (fun t -> { c with h_tgt = t }) (without_each c.h_tgt));
    print =
      (fun c ->
        Fmt.str "inj=%b src=%a tgt=%a" c.h_inj Atomset.pp_verbose
          (Atomset.of_list c.h_src) Atomset.pp_verbose
          (Atomset.of_list c.h_tgt));
  }

let same_witnesses hs1 hs2 =
  List.length hs1 = List.length hs2 && List.for_all2 Subst.equal hs1 hs2

let flat_solver_agrees c =
  let src = Atomset.of_list c.h_src in
  let tgt = Homo.Instance.of_atomset (Atomset.of_list c.h_tgt) in
  same_witnesses
    (Homo.Hom.all ~injective:c.h_inj src tgt)
    (Reference.Boxed.all ~injective:c.h_inj src tgt)

(* ------------------------------------------------------------------ *)
(* Law 12: on the instance every chase engine ends with, the three hom
   questions the engines ask — trigger enumeration (body homs),
   satisfaction (a body hom extended to the head) and core folding (an
   endomorphism avoiding one variable's atoms) — get the reference
   solver's witnesses, witness for witness. *)

let engine_questions_agree kb final =
  let idx = Homo.Instance.of_atomset final in
  let same_find ?seed src tgt =
    Option.equal Subst.equal
      (Homo.Hom.find ?seed src tgt)
      (Reference.Boxed.find ?seed src tgt)
  in
  List.for_all
    (fun r ->
      let homs = Homo.Hom.all (Rule.body r) idx in
      same_witnesses homs (Reference.Boxed.all (Rule.body r) idx)
      && List.for_all
           (fun h ->
             same_find ~seed:h (Atomset.union (Rule.body r) (Rule.head r)) idx)
           homs)
    (Kb.rules kb)
  && List.for_all
       (fun x ->
         same_find final
           (Homo.Instance.remove_atoms idx (Homo.Instance.atoms_with_term idx x)))
       (Atomset.vars final)

let engine_repr_invariant seed =
  let kb = Zoo.Randomkb.generate ~seed Zoo.Randomkb.default in
  let budget = { Chase.Variants.max_steps = 12; max_atoms = 2_000 } in
  List.for_all
    (fun engine -> engine_questions_agree kb (Chase.run ~budget engine kb).Chase.final)
    Chase.[ Oblivious; Skolem; Restricted; Frugal; Core ]

(* ------------------------------------------------------------------ *)
(* Law 13: the analyzer respects the class-implication lattice on random
   KBs (DESIGN.md §13).  The syntactic inclusions — datalog ⟹ WA ⟹ JA,
   linear ⟹ guarded ⟹ frontier-guarded, guarded ⟹ weakly guarded,
   frontier-guarded ⟹ weakly frontier-guarded — must show up as flag
   implications in every report, and the verdict must honour the
   certificates: implies_fes ⟹ terminates-all, implies_bts ⟹ at least
   bts (random KBs carry no EGDs, so the verdict is never capped). *)

let analyze_budget = { Chase.Variants.max_steps = 60; max_atoms = 1_500 }

let analyzer_lattice_respected seed =
  let kb = Zoo.Randomkb.generate ~seed Zoo.Randomkb.default in
  let c = Rclasses.analyze (Kb.rules kb) in
  let r = Analyze.analyze ~budget:analyze_budget kb in
  let implies a b = (not a) || b in
  implies c.Rclasses.datalog c.Rclasses.weakly_acyclic
  && implies c.Rclasses.weakly_acyclic c.Rclasses.jointly_acyclic
  && implies c.Rclasses.linear c.Rclasses.guarded
  && implies c.Rclasses.guarded c.Rclasses.frontier_guarded
  && implies c.Rclasses.guarded c.Rclasses.weakly_guarded
  && implies c.Rclasses.frontier_guarded c.Rclasses.weakly_frontier_guarded
  && implies (Rclasses.implies_fes c)
       (Analyze.verdict r = Analyze.Terminates_all)
  && implies (Rclasses.implies_bts c)
       (Analyze.verdict_rank (Analyze.verdict r)
       >= Analyze.verdict_rank Analyze.Bts)

(* Law 14: analyzer certificates are sound on random KBs — whenever the
   verdict reaches terminates-restricted, re-running the restricted
   chase under the very same budget must reach a fixpoint (the engines
   are deterministic, so the certificate is a replayable witness). *)

let analyzer_certificate_sound seed =
  let kb = Zoo.Randomkb.generate ~seed Zoo.Randomkb.default in
  let r = Analyze.analyze ~budget:analyze_budget kb in
  if Analyze.certified r then
    Resilience.terminated (Chase.run ~budget:analyze_budget Chase.Restricted kb).Chase.outcome
  else true

(* Law 15: every near-miss zoo mutant is rejected from exactly the class
   its one-edit mutation targets, while its parent genuinely belongs to
   it — at every scale the generator picks. *)

type mutant_case = { m_scale : int; m_index : int }

let mutant_case : mutant_case arbitrary =
  {
    gen =
      (fun rng ->
        let n = List.length (Zoo.Families.mutants ()) in
        { m_scale = int_in rng 1 5; m_index = Random.State.int rng n });
    shrink =
      (fun c ->
        (if c.m_scale > 1 then [ { c with m_scale = c.m_scale - 1 } ] else [])
        @ if c.m_index > 0 then [ { c with m_index = c.m_index - 1 } ] else []);
    print =
      (fun c ->
        let m = List.nth (Zoo.Families.mutants ~scale:c.m_scale ()) c.m_index in
        m.Zoo.Families.case.Zoo.Families.name);
  }

let zoo_flag (report : Rclasses.report) = function
  | Zoo.Families.Datalog -> report.Rclasses.datalog
  | Zoo.Families.Weakly_acyclic -> report.Rclasses.weakly_acyclic
  | Zoo.Families.Jointly_acyclic -> report.Rclasses.jointly_acyclic
  | Zoo.Families.Acyclic_grd -> report.Rclasses.agrd_sound
  | Zoo.Families.Linear -> report.Rclasses.linear
  | Zoo.Families.Guarded -> report.Rclasses.guarded
  | Zoo.Families.Frontier_guarded -> report.Rclasses.frontier_guarded

let mutant_rejected c =
  let m = List.nth (Zoo.Families.mutants ~scale:c.m_scale ()) c.m_index in
  let classes_of (case : Zoo.Families.case) =
    Rclasses.analyze (Kb.rules case.Zoo.Families.kb)
  in
  match m.Zoo.Families.broken with
  | Zoo.Families.Klass k ->
      zoo_flag (classes_of m.Zoo.Families.parent) k
      && not (zoo_flag (classes_of m.Zoo.Families.case) k)
  | Zoo.Families.Termination ->
      (* termination mutants keep their parent's classes; the analyzer
         side (never certified) is covered by test_analyze *)
      List.for_all
        (fun k -> zoo_flag (classes_of m.Zoo.Families.case) k)
        m.Zoo.Families.case.Zoo.Families.classes

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Laws 15–19: the serve wire protocol (DESIGN.md §15).  The codec is a
   pure function pair, so its contract is stated as laws: total decode,
   exact round trips, Truncated exactly on strict prefixes, Oversized
   carrying the offending length, and the request grammar printing a
   canonical form its own parser maps back to the same value. *)

module Pr = Server.Protocol

let wire_kinds =
  Pr.[ K_hello; K_req; K_ok; K_err; K_data; K_event; K_bye ]

let frame_arb =
  let gen rng =
    let kind = pick rng wire_kinds in
    let n = int_in rng 0 80 in
    (* full byte range: payloads are binary-safe, newlines included *)
    let payload = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    { Pr.kind; payload }
  in
  let shrink f =
    let p = f.Pr.payload in
    (if String.length p > 0 then
       [
         { f with Pr.payload = "" };
         { f with Pr.payload = String.sub p 0 (String.length p / 2) };
         { f with Pr.payload = String.map (fun _ -> 'a') p };
       ]
     else [])
    @ if f.Pr.kind <> Pr.K_ok then [ { f with Pr.kind = Pr.K_ok } ] else []
  in
  let print f = Fmt.str "%s %S" (Pr.kind_name f.Pr.kind) f.Pr.payload in
  { gen; shrink; print }

let frame_roundtrip f =
  let s = Pr.encode f in
  Pr.decode s = Ok (f, String.length s)

let frame_prefixes_truncated f =
  let s = Pr.encode f in
  let ok = ref true in
  for i = 0 to String.length s - 1 do
    match Pr.decode (String.sub s 0 i) with
    | Error Pr.Truncated -> ()
    | _ -> ok := false
  done;
  !ok

let oversized_arb =
  {
    gen = (fun rng -> Pr.max_payload + 1 + Random.State.int rng 1_000_000);
    shrink = (fun n -> if n > Pr.max_payload + 1 then [ Pr.max_payload + 1 ] else []);
    print = string_of_int;
  }

let oversized_rejected n =
  Pr.decode (Fmt.str "corechase/1 data %d\n" n) = Error (Pr.Oversized n)

let wire_bytes_arb =
  {
    gen =
      (fun rng ->
        let n = int_in rng 0 60 in
        String.init n (fun _ -> Char.chr (Random.State.int rng 256)));
    shrink =
      (fun s ->
        if s = "" then []
        else
          [
            String.sub s 0 (String.length s / 2);
            String.sub s 1 (String.length s - 1);
          ]);
    print = (fun s -> Fmt.str "%S" s);
  }

(* any exception escaping decode falsifies the law (check treats raises
   as failures), so this is the totality statement *)
let decode_total s = match Pr.decode s with Ok _ | Error _ -> true

let gen_sess rng =
  let n = int_in rng 1 8 in
  String.init n (fun _ ->
      pick rng [ 'a'; 'b'; 'k'; 'z'; 'A'; 'Z'; '0'; '9'; '_'; '-'; '.' ])

(* nonempty-trim multi-line body text (inline DLGP / ENTAIL queries are
   carried verbatim, so the law only needs the grammar's precondition:
   something non-blank) *)
let gen_body rng =
  let n = int_in rng 0 30 in
  "p(a)."
  ^ String.init n (fun _ ->
        pick rng [ 'a'; ' '; '\n'; '('; ')'; ':'; '-'; '.'; 'X'; ',' ])

let gen_path rng =
  let n = int_in rng 1 12 in
  String.init n (fun _ -> pick rng [ 'a'; 'b'; '/'; '.'; '-'; '_'; '0' ])

let chase_variants = Chase.[ Oblivious; Skolem; Restricted; Frugal; Core ]

let request_arb =
  let gen rng =
    match Random.State.int rng 12 with
    | 0 -> Pr.Open (gen_sess rng)
    | 1 -> Pr.Load { session = gen_sess rng; source = Pr.From_path (gen_path rng) }
    | 2 -> Pr.Load { session = gen_sess rng; source = Pr.From_text (gen_body rng) }
    | 3 ->
        Pr.Chase
          {
            session = gen_sess rng;
            variant = pick rng chase_variants;
            steps = int_in rng 1 1_000_000;
            atoms = int_in rng 1 1_000_000;
          }
    | 4 -> Pr.Entail { session = gen_sess rng; query = gen_body rng }
    | 5 -> Pr.Analyze (gen_sess rng)
    | 6 -> Pr.Stats (gen_sess rng)
    | 7 -> Pr.Close (gen_sess rng)
    | 8 -> Pr.Ping
    | 9 -> Pr.Metrics
    | 10 -> Pr.Sessions
    | _ -> Pr.Shutdown
  in
  let shrink = function
    | Pr.Open n when n <> "s" -> [ Pr.Open "s" ]
    | Pr.Load { session; _ } -> [ Pr.Open session; Pr.Open "s" ]
    | Pr.Chase { session; _ } -> [ Pr.Open session; Pr.Open "s" ]
    | Pr.Entail { session; _ } -> [ Pr.Open session; Pr.Open "s" ]
    | _ -> []
  in
  let print r = Fmt.str "%S" (Pr.print_request r) in
  { gen; shrink; print }

let request_roundtrip r = Pr.parse_request (Pr.print_request r) = Ok r

(* ------------------------------------------------------------------ *)
(* WAL codec totality (DESIGN.md §16): typed records survive the binary
   round trip, every strict prefix of a frame is torn, single-byte
   damage never passes the checksum, and neither decoder ever raises on
   byte soup. *)

module Wr = Storage.Record
module Wx = Storage.Xlog

let gen_wal_atom rng =
  Atom.make
    (pick rng [ "p"; "q"; "r" ])
    (List.init (int_in rng 0 3) (fun _ -> pick rng term_pool))

let gen_wal_atoms rng = List.init (int_in rng 0 4) (fun _ -> gen_wal_atom rng)

let gen_wal_subst rng = subst_of (gen_bindings rng)

let gen_wal_string rng =
  (* full byte range: record strings are binary-safe *)
  String.init (int_in rng 0 16) (fun _ -> Char.chr (Random.State.int rng 256))

let gen_record rng : Wr.t =
  match Random.State.int rng 10 with
  | 0 ->
      Wr.Begin
        {
          engine = pick rng [ "restricted"; "frugal"; "core" ];
          kb_path =
            (if Random.State.bool rng then Some (gen_wal_string rng) else None);
          kb_digest =
            (if Random.State.bool rng then Some (gen_wal_string rng) else None);
          max_steps = int_in rng 0 1_000_000;
          max_atoms = int_in rng 0 1_000_000;
          term_counter = int_in rng 0 1_000_000;
        }
  | 1 -> Wr.Start { sigma = gen_wal_subst rng }
  | 2 ->
      Wr.Add
        {
          index = int_in rng 1 10_000;
          pi_safe = gen_wal_subst rng;
          sigma = gen_wal_subst rng;
          added = gen_wal_atoms rng;
        }
  | 3 -> Wr.Retract { index = int_in rng 1 10_000; sigma = gen_wal_subst rng }
  | 4 -> Wr.Merge { sigma = gen_wal_subst rng }
  | 5 ->
      Wr.Round
        {
          rounds = int_in rng 0 1_000;
          steps = int_in rng 0 10_000;
          snapshot_index = int_in rng (-1) 100;
          term_counter = int_in rng 0 1_000_000;
        }
  | 6 ->
      Wr.Snap_step
        {
          index = int_in rng 0 10_000;
          pi_safe = gen_wal_subst rng;
          sigma = gen_wal_subst rng;
          pre = gen_wal_atoms rng;
          inst = gen_wal_atoms rng;
        }
  | 7 -> Wr.Sess_op (gen_wal_string rng)
  | 8 ->
      Wr.Sess_chase
        {
          session = gen_wal_string rng;
          variant = pick rng [ "core"; "restricted" ];
          max_steps = int_in rng 0 1_000_000;
          max_atoms = int_in rng 0 1_000_000;
          outcome = pick rng [ "fixpoint"; "steps"; "deadline" ];
          chase_steps = int_in rng 0 10_000;
          final = gen_wal_atoms rng;
        }
  | _ ->
      Wr.Sess_gen
        { session = gen_wal_string rng; generation = int_in rng 0 1_000 }

let record_arb =
  {
    gen = gen_record;
    shrink = (fun _ -> [ Wr.Sess_op "" ]);
    print = (fun r -> Fmt.str "%a (%d bytes)" Wr.pp r (String.length (Wr.encode r)));
  }

let record_roundtrip r =
  match Wr.decode (Wr.encode r) with Ok r' -> Wr.equal r r' | Error _ -> false

let record_prefixes_error r =
  let bytes = Wr.encode r in
  let ok = ref true in
  for len = 0 to String.length bytes - 1 do
    match Wr.decode (String.sub bytes 0 len) with
    | Error _ -> ()
    | Ok _ -> ok := false
  done;
  !ok

let framed_record_arb =
  {
    gen = (fun rng -> (int_in rng 0 1_000_000, gen_record rng));
    shrink = (fun (lsn, r) -> if lsn > 1 then [ (1, r) ] else []);
    print = (fun (lsn, r) -> Fmt.str "lsn %d %a" lsn Wr.pp r);
  }

let frame_prefixes_torn (lsn, r) =
  let frame = Wx.encode_frame ~lsn (Wr.encode r) in
  let ok = ref true in
  for len = 0 to String.length frame - 1 do
    match Wx.decode_frame (String.sub frame 0 len) with
    | Error Wx.Torn -> ()
    | _ -> ok := false
  done;
  !ok

let flipped_frame_arb =
  {
    gen =
      (fun rng ->
        let lsn = int_in rng 0 1_000_000 in
        let r = gen_record rng in
        let frame = Wx.encode_frame ~lsn (Wr.encode r) in
        (lsn, r, Random.State.int rng (String.length frame),
         1 lsl Random.State.int rng 8));
    shrink = (fun _ -> []);
    print =
      (fun (lsn, r, pos, mask) ->
        Fmt.str "lsn %d %a, flip bit 0x%02x at byte %d" lsn Wr.pp r mask pos);
  }

(* a flip may land in the length field (frame now torn/malformed) or
   anywhere else (checksum mismatch) — it must never decode back to the
   original frame as if nothing happened *)
let frame_flip_detected (lsn, r, pos, mask) =
  let payload = Wr.encode r in
  let frame = Wx.encode_frame ~lsn payload in
  let b = Bytes.of_string frame in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  match Wx.decode_frame (Bytes.to_string b) with
  | Ok (lsn', p', _) -> not (lsn' = lsn && p' = payload)
  | Error _ -> true

(* raising inside prop counts as falsified, so these are the totality
   statements for both decoder layers *)
let wal_decode_total s =
  (match Wr.decode s with Ok _ | Error _ -> true)
  && (match Wx.decode_frame s with Ok _ | Error _ -> true)

let suites =
  [
    ( "props.laws",
      [
        check ~count:300 "subst compose associative" subst_triple
          compose_associative;
        check ~count:200 "dlgp print/parse round trip" dlgp_case dlgp_roundtrip;
        check ~count:200 "core idempotent" atom_list core_idempotent;
        check ~count:200 "chase invariant under renaming" seed_arb
          chase_renaming_invariant;
        check ~count:200 "scoped core agrees with full (audit)" scoped_case
          scoped_core_agrees;
        check ~count:400 "trace json round trip" event_arb json_roundtrip;
        check ~count:200 "parallel exact treewidth = sequential" tw_case
          parallel_tw_agrees;
        check ~count:120 "audited core chase never diverges (jobs=4)"
          scoped_case scoped_core_agrees_parallel;
        check ~count:400 "flat codes round trip, equal/hash lawful" atom_pair
          flat_codes_lawful;
        check ~count:400 "flat substitution agrees with boxed" fsub_case
          flat_subst_agrees;
        check ~count:150 "flat solver = boxed solver (Hom.all)" hom_case
          flat_solver_agrees;
        check ~count:50 "chase engines invariant under hom repr" seed_arb
          engine_repr_invariant;
        check ~count:300 "analyzer respects the class lattice" seed_arb
          analyzer_lattice_respected;
        check ~count:200 "analyzer certificates are sound" seed_arb
          analyzer_certificate_sound;
        check ~count:100 "zoo mutants rejected from the broken class"
          mutant_case mutant_rejected;
        check ~count:400 "wire frames round trip" frame_arb frame_roundtrip;
        check ~count:200 "wire frame prefixes are truncated" frame_arb
          frame_prefixes_truncated;
        check ~count:300 "oversized length prefixes rejected" oversized_arb
          oversized_rejected;
        check ~count:500 "wire decode total on random bytes" wire_bytes_arb
          decode_total;
        check ~count:400 "requests round trip through the grammar"
          request_arb request_roundtrip;
        check ~count:400 "wal records round trip" record_arb record_roundtrip;
        check ~count:150 "wal record prefixes are errors" record_arb
          record_prefixes_error;
        check ~count:150 "wal frame prefixes are torn" framed_record_arb
          frame_prefixes_torn;
        check ~count:400 "wal frame bit flips detected" flipped_frame_arb
          frame_flip_detected;
        check ~count:500 "wal decode total on random bytes" wire_bytes_arb
          wal_decode_total;
      ] );
  ]
