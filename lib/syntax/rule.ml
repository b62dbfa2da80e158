type t = { name : string; body : Atomset.t; head : Atomset.t }

let make_sets ?(name = "") ~body ~head () =
  if Atomset.is_empty body then invalid_arg "Rule.make: empty body";
  if Atomset.is_empty head then invalid_arg "Rule.make: empty head";
  { name; body; head }

let make ?name ~body ~head () =
  make_sets ?name ~body:(Atomset.of_list body) ~head:(Atomset.of_list head) ()

let name r = r.name

let body r = r.body

let head r = r.head

let universal_vars r = Atomset.vars r.body

let frontier r =
  let head_vars = Atomset.vars r.head in
  List.filter (fun v -> List.exists (Term.equal v) head_vars)
    (Atomset.vars r.body)

let existential_vars r =
  let body_vars = Atomset.vars r.body in
  List.filter
    (fun v -> not (List.exists (Term.equal v) body_vars))
    (Atomset.vars r.head)

let nonfrontier_universal_vars r =
  let head_vars = Atomset.vars r.head in
  List.filter
    (fun v -> not (List.exists (Term.equal v) head_vars))
    (Atomset.vars r.body)

let is_datalog r = existential_vars r = []

let vars r =
  List.sort_uniq Term.compare (universal_vars r @ Atomset.vars r.head)

let preds r =
  List.sort_uniq compare (Atomset.preds r.body @ Atomset.preds r.head)

let rename_apart r =
  let renaming =
    List.fold_left
      (fun s v -> Subst.add v (Term.fresh_var ~hint:(Term.hint v) ()) s)
      Subst.empty (vars r)
  in
  {
    name = r.name;
    body = Subst.apply renaming r.body;
    head = Subst.apply renaming r.head;
  }

let compare r1 r2 =
  let c = String.compare r1.name r2.name in
  if c <> 0 then c
  else
    let c = Atomset.compare r1.body r2.body in
    if c <> 0 then c else Atomset.compare r1.head r2.head

let equal r1 r2 = compare r1 r2 = 0

let pp ppf r =
  let pp_conj ppf s =
    Fmt.(list ~sep:(any " ∧ ") Atom.pp) ppf (Atomset.to_list s)
  in
  if r.name = "" then Fmt.pf ppf "@[%a → %a@]" pp_conj r.body pp_conj r.head
  else
    Fmt.pf ppf "@[%s: %a → %a@]" r.name pp_conj r.body pp_conj r.head
