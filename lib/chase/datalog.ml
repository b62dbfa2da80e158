open Syntax

let check_datalog rules =
  List.iter
    (fun r ->
      if not (Rule.is_datalog r) then
        invalid_arg
          ("Datalog: rule has existential variables: " ^ Rule.name r))
    rules

(* One index, patched with each round's new atoms; the next round's
   triggers are those anchored on them (full enumeration on the first
   round).  A datalog trigger's head image needs no fresh nulls.  Each
   round starts at a poll site, so a deadline or cancellation stops the
   saturation between rounds. *)
let fold_rounds rules facts ~init f =
  check_datalog rules;
  let rec go idx delta acc =
    Resilience.poll ();
    Resilience.Fault.hit "round";
    let fresh =
      List.fold_left
        (fun acc tr ->
          Atomset.fold
            (fun a acc ->
              if Homo.Instance.mem idx a then acc else Atomset.add a acc)
            (Subst.apply (Trigger.mapping tr) (Rule.head (Trigger.rule tr)))
            acc)
        Atomset.empty
        (Trigger.discover_all ?delta rules idx)
    in
    if Atomset.is_empty fresh then acc
    else
      let idx = Homo.Instance.add_atoms idx (Atomset.to_list fresh) in
      go idx (Some fresh) (f acc (Homo.Instance.atomset idx))
  in
  go (Homo.Instance.of_atomset facts) None (f init facts)

let rounds rules facts =
  List.rev (fold_rounds rules facts ~init:[] (fun acc i -> i :: acc))

let saturate rules facts = fold_rounds rules facts ~init:facts (fun _ i -> i)
