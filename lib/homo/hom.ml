open Syntax

(* Observability (DESIGN.md §8): one counter pair for the backtracking
   search.  A "backtrack" is a candidate target atom that failed to extend
   the current partial homomorphism (or violated injectivity); the count is
   accumulated in a local ref — one increment per dead end — and flushed to
   the registry / trace sink only when observability is live, so the
   disabled path adds nothing to the search itself.  [hom.minor_words]
   accumulates the solver's own minor-heap allocation (a [Gc.minor_words]
   delta per call), making the solver's allocation-free matching
   measurable rather than asserted. *)
let m_solve_calls = Obs.Metrics.counter "hom.solve_calls"

let m_backtracks = Obs.Metrics.counter "hom.backtracks"

let m_minor_words = Obs.Metrics.counter "hom.minor_words"

(* Resilience (DESIGN.md §11): the search recurses once per source atom,
   so an adversarially deep pattern (e.g. a folded chain) can exhaust the
   system stack from inside a chase step.  An explicit bound raises the
   same [Stack_overflow] the engine boundary already classifies as
   [Resource `Stack_overflow] — but deterministically, long before the
   runtime guard page.  [CORECHASE_HOM_DEPTH] overrides the default. *)
let default_max_depth = 50_000

let max_depth =
  ref
    (match Sys.getenv_opt "CORECHASE_HOM_DEPTH" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | _ -> default_max_depth)
    | None -> default_max_depth)

let extend_via_atom sigma pattern target =
  if
    (not (String.equal (Atom.pred pattern) (Atom.pred target)))
    || Atom.arity pattern <> Atom.arity target
  then None
  else
    let extend sigma p t =
      match (sigma, p) with
      | None, _ -> None
      | Some _, Term.Const _ -> if Term.equal p t then sigma else None
      | Some s, Term.Var _ -> (
          match Subst.find p s with
          | Some img -> if Term.equal img t then sigma else None
          | None -> Some (Subst.add p t s))
    in
    List.fold_left2 extend (Some sigma) (Atom.args pattern) (Atom.args target)

(* The search runs over interned codes (DESIGN.md §12).  The source is
   encoded once per call — its variables get dense slots, each pattern
   atom becomes an [fpat] (original rank, pred id, codes with
   [lnot slot] for the variables, and the predicate's index handle,
   resolved here rather than at every node) — and the inner loop then
   touches only int arrays: the partial homomorphism is [bind]
   (slot -> code, [Flat.no_code] when unbound), candidate matching
   compares codes positionally, and undo pops a slot trail.  No
   [Subst.t], no [Term.t] and no list is built until a full solution is
   emitted.  [k] is called on every solution; raising from [k] aborts
   the search (used for early exit). *)
type fpat = {
  rank : int;
  fpred : int;
  fargs : int array;
  fidx : Instance.findex;
}

let search ~bt ~nodes ~seed ~injective ~k (src : Atomset.t)
    (tgt : Instance.t) : unit =
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rev_vars = ref [] in
  let nslots = ref 0 in
  let enc_term t =
    match t with
    | Term.Const _ ->
        (* interning (not [code_of_term_opt]): a never-seen constant gets
           a real id that no target atom carries, so it fails to match
           exactly as [Term.equal] would *)
        Flat.code_of_term t
    | Term.Var v -> (
        match Hashtbl.find_opt slot_of v.Term.id with
        | Some s -> lnot s
        | None ->
            let s = !nslots in
            incr nslots;
            Hashtbl.add slot_of v.Term.id s;
            rev_vars := t :: !rev_vars;
            lnot s)
  in
  let pats =
    Array.of_list
      (List.mapi
         (fun i a ->
           let pid = Flat.Symtab.intern (Atom.pred a) in
           {
             rank = i;
             fpred = pid;
             fargs = Array.of_list (List.map enc_term (Atom.args a));
             fidx = Instance.findex tgt ~pred:pid;
           })
         (Atomset.to_list src))
  in
  let n = !nslots in
  let vars = Array.of_list (List.rev !rev_vars) in
  let bind = Array.make (max n 1) Flat.no_code in
  let seeded = Array.make (max n 1) false in
  let trail = Array.make (max n 1) 0 in
  let tp = ref 0 in
  for s = 0 to n - 1 do
    match Subst.find vars.(s) seed with
    | Some img ->
        bind.(s) <- Flat.code_of_term img;
        seeded.(s) <- true
    | None -> ()
  done;
  (* Injectivity: the codes already used as images — the source's
     constants (their own images) and the seed's images.  Entries from
     this initialisation are permanent; only trail-recorded additions are
     undone. *)
  let used : (int, unit) Hashtbl.t =
    Hashtbl.create (if injective then 32 else 1)
  in
  if injective then begin
    List.iter
      (fun c -> Hashtbl.replace used (Flat.code_of_term c) ())
      (Atomset.consts src);
    for s = 0 to n - 1 do
      if seeded.(s) then Hashtbl.replace used bind.(s) ()
    done
  end;
  (* Decode a full assignment back to a boxed substitution.  Images are
     decoded through the instance's witness terms, so variable hints (and
     hence printed output) are the ones the target atoms carry.  Every
     bound code comes from a target atom, so the witness exists; the
     [Flat.term_of_code] fallback is belt and braces. *)
  let emit () =
    let sigma = ref seed in
    for s = 0 to n - 1 do
      if not seeded.(s) then begin
        let img =
          match Instance.term_of_code tgt bind.(s) with
          | Some t -> t
          | None -> Flat.term_of_code bind.(s)
        in
        sigma := Subst.add vars.(s) img !sigma
      end
    done;
    !sigma
  in
  let undo mark =
    while !tp > mark do
      decr tp;
      let s = trail.(!tp) in
      if injective then Hashtbl.remove used bind.(s);
      bind.(s) <- Flat.no_code
    done
  in
  (* positional match, binding fresh slots onto the trail; the
     injectivity check interleaves: a fresh image must be unused *)
  let rec match_args fargs ta plen i =
    i >= plen
    ||
    let p = fargs.(i) in
    let t = ta.(i) in
    if p >= 0 then p = t && match_args fargs ta plen (i + 1)
    else
      let b = bind.(lnot p) in
      if b <> Flat.no_code then b = t && match_args fargs ta plen (i + 1)
      else if injective && Hashtbl.mem used t then false
      else begin
        bind.(lnot p) <- t;
        if injective then Hashtbl.replace used t ();
        trail.(!tp) <- lnot p;
        incr tp;
        match_args fargs ta plen (i + 1)
      end
  in
  let rec go live =
    incr nodes;
    if !nodes land 255 = 0 then Resilience.poll ();
    if live = 0 then k (emit ())
    else begin
      let best = ref 0 in
      if live > 1 then begin
        (* most-constrained-first over the cached bucket cardinalities;
           ties go to the smallest original rank.  A zero-cardinality
           count stops the scan: the node is a dead end whichever
           zero-bucket pattern is charged with it, so skipping the
           remaining counts changes nothing observable. *)
        let p0 = pats.(0) in
        let bc = ref (Instance.findex_count p0.fidx ~fargs:p0.fargs ~bind) in
        let i = ref 1 in
        while !bc > 0 && !i < live do
          let p = pats.(!i) in
          let c = Instance.findex_count p.fidx ~fargs:p.fargs ~bind in
          if c < !bc || (c = !bc && p.rank < pats.(!best).rank) then begin
            best := !i;
            bc := c
          end;
          incr i
        done
      end;
      let chosen = pats.(!best) in
      pats.(!best) <- pats.(live - 1);
      pats.(live - 1) <- chosen;
      candidates chosen (live - 1)
        (Instance.findex_items chosen.fidx ~fargs:chosen.fargs ~bind)
    end
  and candidates chosen live = function
    | [] -> ()
    | (e : Instance.fentry) :: rest ->
        let fa = e.Instance.flat in
        let ta = Flat.args fa in
        let fargs = chosen.fargs in
        let plen = Array.length fargs in
        let mark = !tp in
        if
          Flat.pred fa = chosen.fpred
          && Array.length ta = plen
          && match_args fargs ta plen 0
        then begin
          go live;
          undo mark
        end
        else begin
          undo mark;
          incr bt
        end;
        candidates chosen live rest
  in
  go (Array.length pats)

(* Core backtracking engine.  [k] is called on every solution; raising from
   [k] aborts the search (used for early exit). *)
let solve ?(seed = Subst.empty) ?(injective = false) ~(k : Subst.t -> unit)
    (src : Atomset.t) (tgt : Instance.t) : unit =
  Resilience.Fault.hit "hom";
  if Atomset.cardinal src > !max_depth then raise Stdlib.Stack_overflow;
  let bt = ref 0 in
  let nodes = ref 0 in
  let run () = search ~bt ~nodes ~seed ~injective ~k src tgt in
  if not (Obs.live ()) then run ()
  else begin
    Obs.Metrics.incr m_solve_calls;
    (* [k] may abort the search by raising (see [find]/[exists]); flush the
       backtrack count on every exit path *)
    Fun.protect
      ~finally:(fun () ->
        if !bt > 0 then begin
          Obs.Metrics.add m_backtracks !bt;
          if Obs.Trace.enabled () then
            Obs.Trace.emit
              (Obs.Trace.Hom_backtrack
                 {
                   backtracks = !bt;
                   src_atoms = Atomset.cardinal src;
                   tgt_atoms = Instance.cardinal tgt;
                 })
        end)
      (fun () -> Obs.Metrics.count_minor_words m_minor_words run)
  end

exception Stop

let find ?seed ?injective src tgt =
  let result = ref None in
  (try
     solve ?seed ?injective
       ~k:(fun s ->
         result := Some s;
         raise Stop)
       src tgt
   with Stop -> ());
  !result

let exists ?seed ?injective src tgt =
  match find ?seed ?injective src tgt with Some _ -> true | None -> false
let all ?seed ?injective ?limit src tgt =
  let acc = ref [] in
  let n = ref 0 in
  (try
     solve ?seed ?injective
       ~k:(fun s ->
         acc := s :: !acc;
         incr n;
         match limit with Some l when !n >= l -> raise Stop | _ -> ())
       src tgt
   with Stop -> ());
  List.rev !acc

let count ?seed ?injective ?limit src tgt =
  let n = ref 0 in
  (try
     solve ?seed ?injective
       ~k:(fun _ ->
         incr n;
         match limit with Some l when !n >= l -> raise Stop | _ -> ())
       src tgt
   with Stop -> ());
  !n

let iter ?seed ?injective f src tgt = solve ?seed ?injective ~k:f src tgt

let find_into src tgt_atoms = find src (Instance.of_atomset tgt_atoms)

let maps_to src tgt_atoms =
  match find_into src tgt_atoms with Some _ -> true | None -> false
