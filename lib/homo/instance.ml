open Syntax

module IMap = Map.Make (Int)
module AMap = Map.Make (Atom)

(* Every atom is stored once, in both representations: the flat mirror
   drives matching and index keys, the boxed original is what every
   public accessor hands back — so hints survive and printing never goes
   through a lossy decode. *)
type fentry = { flat : Flat.t; boxed : Atom.t }

(* A bucket caches its cardinality: selectivity comparisons in
   [findex_select] and candidate counting in the hom search read [n]
   instead of walking [items]. *)
type bucket = { n : int; items : fentry list }

let bucket_empty = { n = 0; items = [] }

let bucket_add e b = { n = b.n + 1; items = e :: b.items }

(* Every bucket holds an atom at most once (keys are per position), so a
   successful removal decrements the cached cardinality by exactly one.
   Membership is decided on the flat mirror: integer compares, and
   [Flat.equal (encode a) (encode b) = Atom.equal a b]. *)
let bucket_remove fa b =
  let rec rm acc = function
    | [] -> None
    | x :: rest ->
        if Flat.equal x.flat fa then Some (List.rev_append acc rest)
        else rm (x :: acc) rest
  in
  match rm [] b.items with
  | None -> b
  | Some items -> { n = b.n - 1; items }

(* The whole per-predicate index: the predicate's bucket plus, per
   argument position, a map from term code to the bucket of atoms
   carrying that code there.  Hanging the position maps off the
   predicate entry keeps every hot-path lookup an int-keyed [IMap]
   probe — no tuple key is built, and the solver resolves the
   predicate part once per pattern, not once per search node
   (DESIGN.md §12).  The [pos] array is copied on every update
   (it is small — one slot per argument position ever seen for the
   predicate), so sharing across derived instance values stays
   persistent. *)
type pindex = { all : bucket; pos : bucket IMap.t array }

let pindex_empty = { all = bucket_empty; pos = [||] }

type t = {
  atoms : Atomset.t;
  entries : fentry AMap.t;
      (** every atom's encoded entry, so removal and rewriting never
          re-encode *)
  by_pred : pindex IMap.t;  (** predicate id -> that predicate's indexes *)
  by_code : (Term.t * bucket) IMap.t;
      (** term code -> (a boxed witness of the code, atoms containing it
          anywhere).  The witness makes decoding solver-found images
          hint-exact: codes drop hints, the witness kept them. *)
}

let empty =
  {
    atoms = Atomset.empty;
    entries = AMap.empty;
    by_pred = IMap.empty;
    by_code = IMap.empty;
  }

let bump e = function
  | None -> Some (bucket_add e bucket_empty)
  | Some b -> Some (bucket_add e b)

let bump_coded e witness = function
  | None -> Some (witness, bucket_add e bucket_empty)
  | Some (w, b) -> Some (w, bucket_add e b)

let drop fa = function
  | None -> None
  | Some b ->
      let b = bucket_remove fa b in
      if b.n = 0 then None else Some b

let drop_coded fa = function
  | None -> None
  | Some (w, b) ->
      let b = bucket_remove fa b in
      if b.n = 0 then None else Some (w, b)

(* (code, boxed witness) per distinct code of the atom, first occurrence
   first — the by-code index must list each atom once per code, not once
   per position. *)
let distinct_coded_args e =
  let codes = e.flat.Flat.args in
  let rec go i terms acc =
    match terms with
    | [] -> List.rev acc
    | t :: rest ->
        let c = codes.(i) in
        if List.exists (fun (c', _) -> c' = c) acc then go (i + 1) rest acc
        else go (i + 1) rest ((c, t) :: acc)
  in
  go 0 (Atom.args e.boxed) []

let add_atom ins a =
  if Atomset.mem a ins.atoms then ins
  else
    let e = { flat = Flat.encode a; boxed = a } in
    let pid = e.flat.Flat.pred in
    let codes = e.flat.Flat.args in
    let arity = Array.length codes in
    let pi =
      match IMap.find_opt pid ins.by_pred with
      | Some pi -> pi
      | None -> pindex_empty
    in
    let plen = Array.length pi.pos in
    let pos =
      Array.init (max arity plen) (fun i ->
          if i < plen then pi.pos.(i) else IMap.empty)
    in
    Array.iteri (fun i c -> pos.(i) <- IMap.update c (bump e) pos.(i)) codes;
    let by_pred = IMap.add pid { all = bucket_add e pi.all; pos } ins.by_pred in
    let by_code =
      List.fold_left
        (fun bc (c, w) -> IMap.update c (bump_coded e w) bc)
        ins.by_code (distinct_coded_args e)
    in
    {
      atoms = Atomset.add a ins.atoms;
      entries = AMap.add a e ins.entries;
      by_pred;
      by_code;
    }

let remove_atom ins a =
  match AMap.find_opt a ins.entries with
  | None -> ins
  | Some e ->
      let fa = e.flat in
      let pid = fa.Flat.pred in
      let by_pred =
        match IMap.find_opt pid ins.by_pred with
        | None -> ins.by_pred
        | Some pi ->
            let all = bucket_remove fa pi.all in
            if all.n = 0 then IMap.remove pid ins.by_pred
            else begin
              let pos = Array.copy pi.pos in
              Array.iteri
                (fun i c -> pos.(i) <- IMap.update c (drop fa) pos.(i))
                fa.Flat.args;
              IMap.add pid { all; pos } ins.by_pred
            end
      in
      let by_code =
        List.fold_left
          (fun bc (c, _) -> IMap.update c (drop_coded fa) bc)
          ins.by_code (distinct_coded_args e)
      in
      {
        atoms = Atomset.remove a ins.atoms;
        entries = AMap.remove a ins.entries;
        by_pred;
        by_code;
      }

let add_atoms ins atoms = List.fold_left add_atom ins atoms

let remove_atoms ins atoms = List.fold_left remove_atom ins atoms

let of_atomset atoms = Atomset.fold (fun a ins -> add_atom ins a) atoms empty

(* One scratch buffer per domain for the allocation-free "does σ move
   this atom?" checks below; instances are immutable and shared across
   domains, so the buffer cannot live inside the instance value. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref (Array.make 8 0))

let scratch n =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) 0;
  !r

let apply_subst sigma ins =
  if Subst.is_empty sigma then ins
  else
    let fsigma = Flat.Subst.of_subst sigma in
    (* only atoms containing a term of the substitution's domain can be
       rewritten; the by-code buckets list exactly those *)
    let affected =
      List.fold_left
        (fun acc x ->
          match Flat.code_of_term_opt x with
          | None -> acc
          | Some code -> (
              match IMap.find_opt code ins.by_code with
              | None -> acc
              | Some (_, b) ->
                  List.fold_left
                    (fun acc e -> AMap.add e.boxed e acc)
                    acc b.items))
        AMap.empty (Subst.domain sigma)
    in
    (* flat change detection: σ is applied into the reusable scratch
       array, so deciding which affected atoms actually move allocates
       nothing (DESIGN.md §12) *)
    let changed =
      AMap.filter
        (fun _ e ->
          Flat.Subst.apply_into fsigma ~args:e.flat.Flat.args
            ~scratch:(scratch (Flat.arity e.flat)))
        affected
    in
    (* two phases: remove every rewritten atom, then add every image.  A
       non-idempotent σ (a fold step swapping x and y, say) can map one
       rewritten atom onto another — interleaving removal with insertion
       would silently drop the latter when its own rewrite runs next. *)
    let ins = AMap.fold (fun a _ ins -> remove_atom ins a) changed ins in
    AMap.fold
      (fun a _ ins -> add_atom ins (Subst.apply_atom sigma a))
      changed ins

let atomset ins = ins.atoms

let cardinal ins = Atomset.cardinal ins.atoms

let mem ins a = Atomset.mem a ins.atoms

let boxed_items b = List.map (fun e -> e.boxed) b.items

let pred_index ins pid =
  match IMap.find_opt pid ins.by_pred with
  | Some pi -> pi
  | None -> pindex_empty

(* Position lookup on a [pindex]: [Not_found] is caught rather than
   probed with [find_opt] — the handler costs nothing on the hit path
   and the miss path allocates no option, keeping candidate selection
   allocation-free (DESIGN.md §12). *)
let pos_bucket pi i code =
  if i < Array.length pi.pos then
    try IMap.find code pi.pos.(i) with Not_found -> bucket_empty
  else bucket_empty

let atoms_with_pred ins p =
  match Flat.Symtab.find p with
  | None -> []
  | Some pid -> boxed_items (pred_index ins pid).all

let atoms_with_pred_pos_term ins p i t =
  match (Flat.Symtab.find p, Flat.code_of_term_opt t) with
  | Some pid, Some c -> boxed_items (pos_bucket (pred_index ins pid) i c)
  | _ -> []

let atoms_with_term ins t =
  match Flat.code_of_term_opt t with
  | None -> []
  | Some c -> (
      match IMap.find_opt c ins.by_code with
      | Some (_, b) -> boxed_items b
      | None -> [])

let term_of_code ins c =
  match IMap.find_opt c ins.by_code with
  | Some (w, _) -> Some w
  | None -> None

(* A pattern's selection handle is its predicate's [pindex], resolved
   once per pattern per solve call — the per-node selection below never
   touches [by_pred] again. *)
type findex = pindex

let findex ins ~pred = pred_index ins pred

(* The most selective index entry for a flat pattern: among argument
   positions whose pattern code is concrete — a constant, or a search
   variable the [bind] array has already fixed — the position bucket
   with the fewest atoms; otherwise the predicate bucket.  The pattern
   encodes its search variables as [lnot slot] (negative), so a
   negative arg reads its current code from [bind] and [Flat.no_code]
   marks "still unconstrained".  Comparisons use the cached
   cardinalities, nothing is allocated, and a zero-cardinality bucket
   short-circuits: nothing beats it, and every empty bucket has the
   same (empty) item list, so the early exit is invisible to the
   search. *)
let findex_select pi ~fargs ~bind =
  let n = Array.length fargs in
  let rec go i best =
    if i >= n || best.n = 0 then best
    else
      let a = fargs.(i) in
      let code = if a >= 0 then a else bind.(lnot a) in
      if code = Flat.no_code then go (i + 1) best
      else
        let b = pos_bucket pi i code in
        go (i + 1) (if b.n < best.n then b else best)
  in
  go 0 pi.all

let findex_count fi ~fargs ~bind = (findex_select fi ~fargs ~bind).n

let findex_items fi ~fargs ~bind = (findex_select fi ~fargs ~bind).items

let invariants_ok ins =
  let fresh = of_atomset ins.atoms in
  let norm b = List.sort (fun e1 e2 -> Atom.compare e1.boxed e2.boxed) b.items in
  let bucket_eq b1 b2 =
    b1.n = List.length b1.items
    && b1.n = b2.n
    && List.equal (fun e1 e2 -> Flat.equal e1.flat e2.flat) (norm b1) (norm b2)
  in
  let pindex_eq p1 p2 =
    (* position arrays may carry trailing empty maps (removals never
       shrink them); compare up to the longer length with empty maps
       padding the shorter *)
    let l1 = Array.length p1.pos and l2 = Array.length p2.pos in
    let get p i = if i < Array.length p.pos then p.pos.(i) else IMap.empty in
    bucket_eq p1.all p2.all
    && List.for_all
         (fun i -> IMap.equal bucket_eq (get p1 i) (get p2 i))
         (List.init (max l1 l2) Fun.id)
  in
  IMap.equal pindex_eq ins.by_pred fresh.by_pred
  && IMap.equal
       (fun (w1, b1) (_, b2) ->
         (* witnesses may legitimately differ between builds (first atom
            to carry the code wins); they must still decode to the keyed
            code *)
         bucket_eq b1 b2
         && IMap.for_all
              (fun c (w, _) -> Flat.code_of_term w = c)
              (IMap.singleton (Flat.code_of_term w1) (w1, b1)))
       ins.by_code fresh.by_code
  && (* entries cover exactly the live atoms and agree with a fresh
        encode *)
  AMap.cardinal ins.entries = Atomset.cardinal ins.atoms
  && AMap.for_all
       (fun a entry ->
         Atomset.mem a ins.atoms
         && Atom.equal entry.boxed a
         && Flat.equal entry.flat (Flat.encode a))
       ins.entries

let pp ppf ins = Atomset.pp ppf ins.atoms
