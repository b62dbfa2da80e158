open Syntax

(* Observability (DESIGN.md §8): robust-form construction and aggregation
   are counted so benchmarks can attribute core-chase post-processing
   work. *)
let m_steps_built = Obs.Metrics.counter "robust.steps_built"

let m_aggregations = Obs.Metrics.counter "robust.aggregations"

module TM = Map.Make (Term)

(* The renaming of Definition 14, for a [sigma] KNOWN to be a retraction
   of [a] — chase engines certify their simplifications (the retraction
   property is asserted where they are built, see Homo.Core), so the
   robust-sequence construction reuses them as-is instead of re-proving
   the property per step.  One pass over vars(a) groups every variable
   under its image and keeps the [<_X]-smallest representative; each
   image variable x is its own preimage (retractions fix their image's
   terms), so x seeds its own group. *)
let renaming_of_retraction a sigma =
  let image = Subst.apply sigma a in
  let best =
    List.fold_left
      (fun best x -> TM.add x x best)
      TM.empty (Atomset.vars image)
  in
  let best =
    List.fold_left
      (fun best y ->
        let x = Subst.apply_term sigma y in
        match TM.find_opt x best with
        | None -> best
        | Some cur ->
            if Term.compare_by_rank y cur < 0 then TM.add x y best else best)
      best (Atomset.vars a)
  in
  TM.fold
    (fun x y acc -> if Term.equal x y then acc else Subst.add x y acc)
    best Subst.empty

let robust_renaming a sigma =
  if not (Subst.is_retraction_of a sigma) then
    invalid_arg "Robust.robust_renaming: not a retraction";
  renaming_of_retraction a sigma

let tau_of a sigma = Subst.compose (robust_renaming a sigma) sigma

type step = {
  index : int;
  a_prime : Atomset.t;
  sigma_prime : Subst.t;
  f_prime : Atomset.t;
  renaming : Subst.t;
  g : Atomset.t;
  rho : Subst.t;
  tau : Subst.t;
}

(* Steps are stored in an array: [aggregation]/[tau_trace] walk the
   sequence index by index, and O(1) [step] access keeps those walks
   linear instead of quadratic. *)
type t = { derivation : Chase.Derivation.t; steps_arr : step array; len : int }

let build_step0 (dstep : Chase.Derivation.step) =
  let f = dstep.Chase.Derivation.pre_instance in
  let sigma0 = dstep.Chase.Derivation.simplification in
  let f0 = dstep.Chase.Derivation.instance in
  let renaming = renaming_of_retraction f sigma0 in
  let g = Subst.apply renaming f0 in
  {
    index = 0;
    a_prime = f;
    sigma_prime = sigma0;
    f_prime = f0;
    renaming;
    g;
    rho = Subst.restrict (Atomset.vars f0) renaming;
    tau = Subst.compose renaming sigma0;
  }

let build_step (prev : step) (prev_f : Atomset.t) (dstep : Chase.Derivation.step) =
  let a_i = dstep.Chase.Derivation.pre_instance in
  let sigma_i = dstep.Chase.Derivation.simplification in
  let f_i = dstep.Chase.Derivation.instance in
  let rho_prev = prev.rho in
  let a_prime = Subst.apply rho_prev a_i in
  let inv =
    match Subst.inverse_on (Atomset.vars prev_f) rho_prev with
    | Some s -> s
    | None -> invalid_arg "Robust: ρ_{i-1} is not invertible (internal error)"
  in
  (* σ'_i = ρ_{i-1} • σ_i • ρ_{i-1}⁻¹, built pointwise on vars(A'_i) *)
  let sigma_prime =
    List.fold_left
      (fun acc x' ->
        let x = Subst.apply_term inv x' in
        let img = Subst.apply_term rho_prev (Subst.apply_term sigma_i x) in
        if Term.equal img x' then acc else Subst.add x' img acc)
      Subst.empty (Atomset.vars a_prime)
  in
  let f_prime = Subst.apply sigma_prime a_prime in
  (* σ'_i is a conjugate of the derivation's retraction σ_i by the
     isomorphism ρ_{i-1}, hence itself a retraction — reused, not
     re-validated ([check_invariants] still verifies it on demand) *)
  let renaming = renaming_of_retraction a_prime sigma_prime in
  let g = Subst.apply renaming f_prime in
  {
    index = dstep.Chase.Derivation.index;
    a_prime;
    sigma_prime;
    f_prime;
    renaming;
    g;
    rho = Subst.restrict (Atomset.vars f_i) (Subst.compose renaming rho_prev);
    tau = Subst.compose renaming sigma_prime;
  }

let of_derivation d =
  let dsteps = Chase.Derivation.steps d in
  match dsteps with
  | [] -> invalid_arg "Robust.of_derivation: empty derivation"
  | d0 :: rest ->
      let s0 = build_step0 d0 in
      let rev_steps, _ =
        List.fold_left
          (fun (acc, prev_f) dstep ->
            let prev = List.hd acc in
            let s = build_step prev prev_f dstep in
            (s :: acc, dstep.Chase.Derivation.instance))
          ([ s0 ], d0.Chase.Derivation.instance)
          rest
      in
      let len = List.length rev_steps in
      if !Obs.Metrics.enabled then Obs.Metrics.add m_steps_built len;
      { derivation = d; steps_arr = Array.of_list (List.rev rev_steps); len }

let derivation r = r.derivation

let length r = r.len

let step r i =
  if i < 0 || i >= r.len then invalid_arg "Robust.step: out of range";
  r.steps_arr.(i)

let steps r = Array.to_list r.steps_arr

let g_at r i = (step r i).g

let tau_trace r ~from_ ~to_ =
  if from_ > to_ then invalid_arg "Robust.tau_trace: from_ > to_";
  let rec go i acc =
    if i > to_ then acc else go (i + 1) (Subst.compose (step r i).tau acc)
  in
  go (from_ + 1) Subst.empty

(* Two independent ways to compute a prefix aggregation.  Each pass is
   linear in the prefix length and counts as one aggregation.

   Forward (production): [D⊛_0 = G_0] and [D⊛_{j+1} = τ_{j+1}(D⊛_j) ∪
   G_{j+1}].  Exact, not just up to isomorphism: [τ̄_i^{j+1} = τ_{j+1} •
   τ̄_i^j] and applying a substitution distributes over union.  One pass
   yields every prefix aggregation in turn; only the current one is live.

   Top down (the cross-check in [check_invariants]): [⋃_{i≤k} τ̄_i^k(G_i)]
   with the trace built from the last index backwards, [τ̄_i^k = τ̄_{i+1}^k
   • τ_{i+1}].  It shares no intermediate value with the forward pass. *)
let top_down r =
  Obs.Metrics.incr m_aggregations;
  let rec go i trace acc =
    let acc = Atomset.union acc (Subst.apply trace (g_at r i)) in
    if i = 0 then acc else go (i - 1) (Subst.compose trace (step r i).tau) acc
  in
  go (r.len - 1) Subst.empty Atomset.empty

(* Fold [f] over D⊛_0 … D⊛_upto, built by the forward recurrence *)
let forward_fold r ~upto f init =
  Obs.Metrics.incr m_aggregations;
  let rec go j d acc =
    let acc = f j d acc in
    if j = upto then acc
    else
      let st = step r (j + 1) in
      go (j + 1) (Atomset.union (Subst.apply st.tau d) st.g) acc
  in
  go 0 (g_at r 0) init

let forward r ~upto = forward_fold r ~upto (fun _ d _ -> d) Atomset.empty

(* [τ̄_i^K] at every index [i] in [is], in one backward pass:
   [τ̄_i^K = τ̄_{i+1}^K • τ_{i+1}] *)
let traces_to_end r is =
  let wanted = Array.make r.len false in
  List.iter (fun i -> wanted.(i) <- true) is;
  let traces = Array.make r.len None in
  let rec go j trace =
    if wanted.(j) then traces.(j) <- Some trace;
    if j > 0 then go (j - 1) (Subst.compose trace (step r j).tau)
  in
  go (r.len - 1) Subst.empty;
  traces

let aggregation r = forward r ~upto:(r.len - 1)

let aggregation_upto r i =
  if i < 0 || i >= r.len then invalid_arg "Robust.aggregation_upto";
  (* ⋃_{j≤i} τ̄_j^K(G_j) = τ̄_i^K(D⊛_i) *)
  Subst.apply (Option.get (traces_to_end r [ i ]).(i)) (forward r ~upto:i)

let fold_indices r =
  List.filter_map
    (fun st ->
      if Subst.is_empty st.Chase.Derivation.simplification then None
      else Some st.Chase.Derivation.index)
    (Chase.Derivation.steps r.derivation)

let stable_aggregation r =
  (* Candidate truncation points are the simplification (fold) boundaries;
     the stable part of D⊛ surfaces at the boundaries where a whole step
     has been retracted away.  Among fold indices, pick the
     [aggregation_upto] of minimal treewidth, preferring the larger (more
     complete) and later one on ties.  Falls back to the full aggregation
     when the derivation never simplifies (monotonic case).

     Two linear passes instead of one fold per candidate: the backward
     pass collects [τ̄_i^K] at the fold indices, the forward pass pushes
     each [D⊛_i] through its trace as it goes by and keeps only the best
     candidate so far.  Scores are distinct ([-i] breaks every tie), so
     the minimum does not depend on the visiting order. *)
  match fold_indices r with
  | [] -> aggregation r
  | folds ->
      let traces = traces_to_end r folds in
      let consider i d best =
        match traces.(i) with
        | None -> best
        | Some trace -> (
            let a = Subst.apply trace d in
            let s = (Treewidth.upper_bound a, -Atomset.cardinal a, -i) in
            match best with
            | Some (bs, _) when bs <= s -> best
            | _ -> Some (s, a))
      in
      let last = List.fold_left max 0 folds in
      snd (Option.get (forward_fold r ~upto:last consider None))

let check_invariants r =
  let ( let* ) = Result.bind in
  let check b msg = if b then Ok () else Error msg in
  let dsteps = Array.of_list (Chase.Derivation.steps r.derivation) in
  let rsteps = r.steps_arr in
  let n = Array.length rsteps in
  let rec loop i =
    if i >= n then Ok ()
    else begin
      let rs = rsteps.(i) in
      let ds = dsteps.(i) in
      let* () =
        check
          (Subst.is_retraction_of rs.a_prime rs.sigma_prime)
          (Printf.sprintf "step %d: σ' is not a retraction of A'" i)
      in
      let* () =
        check
          (Atomset.equal rs.g (Subst.apply rs.rho ds.Chase.Derivation.instance))
          (Printf.sprintf "step %d: ρ_i(F_i) ≠ G_i" i)
      in
      let* () =
        check
          (Subst.is_injective_on
             (Atomset.terms ds.Chase.Derivation.instance)
             rs.rho)
          (Printf.sprintf "step %d: ρ_i not injective on terms(F_i)" i)
      in
      let* () =
        if i = 0 then Ok ()
        else
          check
            (Atomset.subset (Subst.apply rs.tau rsteps.(i - 1).g) rs.g)
            (Printf.sprintf "step %d: τ_i(G_{i-1}) ⊄ G_i" i)
      in
      loop (i + 1)
    end
  in
  let* () = loop 0 in
  (* Lemma 1(i): the prefix aggregations grow along the τ's, D⊛_{j+1} =
     τ_{j+1}(D⊛_j) ∪ G_{j+1}.  The forward pass is built from exactly that
     recurrence, so it is checked against the independent top-down fold
     ⋃ τ̄_i^K(G_i) on the full prefix (and at every prefix by the tests) *)
  check
    (Atomset.equal (forward r ~upto:(r.len - 1)) (top_down r))
    "forward prefix aggregation ≠ top-down fold ⋃ τ̄_i^K(G_i) (Lemma 1(i))"
