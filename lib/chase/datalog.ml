open Syntax

let check_datalog rules =
  List.iter
    (fun r ->
      if not (Rule.is_datalog r) then
        invalid_arg
          ("Datalog: rule has existential variables: " ^ Rule.name r))
    rules

(* all head atoms derivable from homomorphisms extending [seed] *)
let derive_with indexed r seed =
  List.concat_map
    (fun h ->
      Atomset.to_list (Subst.apply h (Rule.head r)))
    (Homo.Hom.all ~seed (Rule.body r) indexed)

let seminaive_round rules inst delta =
  let indexed = Homo.Instance.of_atomset inst in
  List.fold_left
    (fun acc r ->
      let body_atoms = Atomset.to_list (Rule.body r) in
      (* for each body position, anchor it on a delta atom *)
      List.fold_left
        (fun acc anchor ->
          Atomset.fold
            (fun datom acc ->
              match Homo.Hom.extend_via_atom Subst.empty anchor datom with
              | None -> acc
              | Some seed ->
                  List.fold_left
                    (fun acc at ->
                      if Atomset.mem at inst then acc else Atomset.add at acc)
                    acc
                    (derive_with indexed r seed))
            delta acc)
        acc body_atoms)
    Atomset.empty rules

let rounds rules facts =
  check_datalog rules;
  let rec go inst delta acc =
    let fresh = seminaive_round rules inst delta in
    if Atomset.is_empty fresh then List.rev acc
    else
      let inst' = Atomset.union inst fresh in
      go inst' fresh (inst' :: acc)
  in
  go facts facts [ facts ]

let saturate rules facts =
  match List.rev (rounds rules facts) with
  | last :: _ -> last
  | [] -> facts
