open Syntax

(* Delta-scoped folding (DESIGN.md §9).  [Full] searches every variable;
   [Delta] restricts the *first* fold search to the candidate set derived
   from the step's delta, which is complete as long as the pre-delta
   instance was a core.  Once one fold fires that invariant is consumed
   and the loop falls back to the full search. *)
type scope = Full | Delta of { fresh : Term.t list; added : Atom.t list }

let m_scoped = Obs.Metrics.counter "core.scoped_searches"

let m_certified = Obs.Metrics.counter "core.scoped_certified"

let m_fallbacks = Obs.Metrics.counter "core.full_fallbacks"

module TSet = Set.Make (Term)

(* The fold search works on one index of the current instance; the
   candidate target (the instance minus the atoms carrying one variable)
   is derived from it by incremental removal rather than rebuilt. *)
let fold_via_var idx a x =
  Hom.find a (Instance.remove_atoms idx (Instance.atoms_with_term idx x))

(* [Par.find_first_map] is [List.find_map] with jobs = 1; with a pool it
   evaluates the candidates in waves and keeps the lowest-index success,
   so the fold found (and hence the whole retraction chain) is the one
   the sequential search finds. *)
let find_fold_indexed idx =
  let a = Instance.atomset idx in
  Par.find_first_map ~site:"core.fold" (fold_via_var idx a) (Atomset.vars a)

let find_fold a = find_fold_indexed (Instance.of_atomset a)

(* The scoped first-fold search after one delta (DESIGN.md §9).  Writing
   the instance as [I = A ∪ D] with [A] a core and [D] the step's delta,
   any proper retraction [r] of [I] falls in exactly one of two cases:

   (a) [r] is the identity on [A] (an idempotent automorphism of a core
       is the identity), so it moves only the delta's fresh nulls — and
       in fact fixes every non-fresh variable of [I];

   (b) [r] moves a variable of [A]; then [r(A) ⊄ A], so some atom [b]
       maps onto a genuinely-new delta atom [d ∈ D ∖ A] with [b ≠ d].
       Atoms are flat, so [r]'s restriction to [vars b] is exactly the
       per-position unifier [h = extend_via_atom ∅ b d]; moreover [r],
       being idempotent, fixes [d]'s variables, and omits every atom
       containing an [h]-moved variable.

   Each case yields a finished search: (a) per alive fresh null [z], a
   search for an endomorphism fixing all non-fresh variables into
   [I ∖ atoms z]; (b) per unifiable pair [(b, d)] whose moved variables
   avoid [vars d], a single [h]-seeded search into [I] minus the atoms
   of all [h]-moved variables.  A [None] over all of them certifies that
   [I] is still a core — the dominant case on long chase prefixes, and
   the reason per-step cost tracks the delta.  [added] must list exactly
   the atoms of [D ∖ A] (new in the instance, not re-derived
   duplicates). *)
let moved_vars h b =
  List.filter
    (fun x ->
      match Subst.find x h with Some t -> not (Term.equal t x) | None -> false)
    (Atom.vars b)

let find_fold_scoped idx ~fresh ~added =
  Resilience.Fault.hit "fold";
  Resilience.poll ();
  let a = Instance.atomset idx in
  (* Both candidate families are enumerated (cheaply) up front on the
     calling domain, in the order the sequential search visits them; the
     seeded hom searches — the expensive part — then fan out over the
     pool, first-fired-fold resolution going to the lowest seed index
     (= the fold the sequential search fires).  [candidates] in the
     trace event counts the prefiltered seeded searches, whether or not
     an early success makes some of them moot. *)
  (* case (a): a fold eliminating a fresh null, identity elsewhere *)
  let freshset = List.fold_left (fun s z -> TSet.add z s) TSet.empty fresh in
  let alive_fresh =
    List.filter (fun z -> Instance.atoms_with_term idx z <> []) fresh
  in
  let keep_seed =
    (* forced on the calling domain: a shared [lazy] would race *)
    if alive_fresh = [] then Subst.empty
    else
      List.fold_left
        (fun s x -> if TSet.mem x freshset then s else Subst.add x x s)
        Subst.empty (Atomset.vars a)
  in
  let via_fresh z =
    Hom.find ~seed:keep_seed a
      (Instance.remove_atoms idx (Instance.atoms_with_term idx z))
  in
  (* case (b): an old atom maps onto a new delta atom *)
  let pair_candidates =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun b ->
            if Atom.equal b d then None
            else
              match Hom.extend_via_atom Subst.empty b d with
              | None -> None
              | Some h -> (
                  match moved_vars h b with
                  | [] -> None
                  | moved
                    when List.exists
                           (fun x -> List.exists (Term.equal x) (Atom.vars d))
                           moved ->
                      (* an idempotent retraction fixes the variables of
                         its image atom [d]; a pair moving one cannot
                         witness (b) *)
                      None
                  | moved -> Some (h, moved)))
          (Instance.atoms_with_pred idx (Atom.pred d)))
      added
  in
  let via_pair (h, moved) =
    let dropped = List.concat_map (Instance.atoms_with_term idx) moved in
    Hom.find ~seed:h a
      (Instance.remove_atoms idx dropped)
  in
  let searches = List.length alive_fresh + List.length pair_candidates in
  let r =
    match Par.find_first_map ~site:"core.scoped" via_fresh alive_fresh with
    | Some h -> Some h
    | None -> Par.find_first_map ~site:"core.scoped" via_pair pair_candidates
  in
  if !Obs.Metrics.enabled then begin
    Obs.Metrics.incr m_scoped;
    Obs.Metrics.incr (if r = None then m_certified else m_fallbacks)
  end;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      (Obs.Trace.Core_scoped_fold
         {
           candidates = searches;
           folded = r <> None;
           size = Instance.cardinal idx;
         });
  r

let rec fold_loop sigma idx =
  Resilience.Fault.hit "fold";
  Resilience.poll ();
  match find_fold_indexed idx with
  | None -> (sigma, Instance.atomset idx)
  | Some h -> fold_loop (Subst.compose h sigma) (Instance.apply_subst h idx)

let fold_to_core scope idx =
  match scope with
  | Full -> fold_loop Subst.empty idx
  | Delta { fresh; added } -> (
      match find_fold_scoped idx ~fresh ~added with
      | None -> (Subst.empty, Instance.atomset idx)
      | Some h ->
          (* the core invariant is consumed by the first fold; finish with
             the unconditional search *)
          fold_loop h (Instance.apply_subst h idx))

let retraction_to_core_indexed ?(scope = Full) idx =
  let a = Instance.atomset idx in
  let sigma_star, c = fold_to_core scope idx in
  if Subst.is_empty sigma_star then Subst.empty
  else begin
    (* σ* : A → C is a homomorphism onto the core C; its restriction to C
       is an endomorphism of the finite core C, hence an automorphism.
       Pre-composing with the inverse yields a retraction. *)
    let g = Subst.restrict (Atomset.vars c) sigma_star in
    let r =
      if Subst.is_identity_on (Atomset.terms c) g then sigma_star
      else
        let g_inv = Morphism.invert_automorphism c g in
        Subst.compose g_inv sigma_star
    in
    assert (Subst.is_retraction_of a r);
    r
  end

let retraction_to_core ?scope a =
  retraction_to_core_indexed ?scope (Instance.of_atomset a)

let core_with_retraction a =
  let r = retraction_to_core a in
  (Subst.apply r a, r)

let of_atomset a = fst (core_with_retraction a)

let is_core a = match find_fold a with None -> true | Some _ -> false
