open Syntax

type verdict = Entailed | Not_entailed | Unknown of string

let pp_verdict ppf = function
  | Entailed -> Fmt.string ppf "entailed"
  | Not_entailed -> Fmt.string ppf "not entailed"
  | Unknown why -> Fmt.pf ppf "unknown (%s)" why

let holds_in q inst = Homo.Hom.maps_to (Kb.Query.atoms q) inst

let holds_in_indexed q indexed = Homo.Hom.exists (Kb.Query.atoms q) indexed

(* The engines catch deadline/cancellation at their own boundary, but the
   hom searches probing the derivation elements afterwards run outside it
   and re-raise [Resilience.Interrupted]; fold that into the verdict so
   no entailment entry point lets an armed token crash the caller. *)
let guard_verdict f =
  try f ()
  with e -> (
    match Resilience.outcome_of_exn e with
    | Some o -> Unknown (Resilience.outcome_name o)
    | None -> raise e)

let stopped_why outcome =
  Fmt.str "chase stopped (%s) without finding the query"
    (Resilience.outcome_name outcome)

(* One chase run, reduced to what every entry point answers from: the
   outcome and the final derivation element.  By Proposition 1 every
   element F_i maps homomorphically into F_final (monotone growth for
   the restricted chase, the fold endomorphisms σ for the core chase),
   so [Q ↪ F_i] for some [i] iff [Q ↪ F_final], and a constant answer
   tuple found in any element persists into the final one. *)
let chase_final ~variant ?budget kb =
  let run =
    match variant with
    | `Restricted -> Chase.Variants.restricted ?budget kb
    | `Core -> Chase.Variants.core ?budget kb
  in
  ( run.Chase.Variants.outcome,
    (Chase.Derivation.last run.Chase.Variants.derivation)
      .Chase.Derivation.instance )

(* The chase side of a verdict on an indexed snapshot. *)
let snapshot_verdict ~outcome indexed q =
  if holds_in_indexed q indexed then Entailed
  else if Resilience.terminated outcome then Not_entailed
  else Unknown (stopped_why outcome)

let via_chase ?(variant = `Core) ?budget kb q =
  guard_verdict @@ fun () ->
  let outcome, final = chase_final ~variant ?budget kb in
  snapshot_verdict ~outcome (Homo.Instance.of_atomset final) q

let via_countermodel ~max_domain kb q =
  match Modelfinder.find_model_upto ~max_domain ~forbid:q kb with
  | Some _ -> Not_entailed
  | None -> Unknown "no countermodel within the domain budget"

type answers = Complete of Term.t list list | Sound of Term.t list list

(* The snapshot functions are the one evaluation path: the server
   answers from the snapshot its CHASE stamped, and the batch entry
   points below from the final element of a fresh chase (DESIGN.md
   §15), so batch and serve agree byte for byte by construction. *)
let decide_in_snapshot ?(max_domain = 4) ~outcome indexed kb q =
  guard_verdict @@ fun () ->
  match snapshot_verdict ~outcome indexed q with
  | (Entailed | Not_entailed) as v -> v
  | Unknown why1 -> (
      match via_countermodel ~max_domain kb q with
      | Not_entailed -> Not_entailed
      | Unknown why2 -> Unknown (why1 ^ "; " ^ why2)
      | Entailed -> assert false)

let decide ?(variant = `Core) ?budget ?max_domain kb q =
  guard_verdict @@ fun () ->
  let outcome, final = chase_final ~variant ?budget kb in
  decide_in_snapshot ?max_domain ~outcome (Homo.Instance.of_atomset final) kb q

let certain_answers_in_snapshot ~outcome final q =
  let avars = Kb.Query.answer_vars q in
  if avars = [] then
    invalid_arg "Entailment.certain_answers_in_snapshot: Boolean query";
  match
    Homo.Cq.certain_answers ~answer_vars:avars q final
    |> List.sort_uniq (List.compare Term.compare)
  with
  | tuples ->
      if Resilience.terminated outcome then Complete tuples else Sound tuples
  | exception e -> (
      (* interrupted while evaluating: the tuples found so far are still
         certain, but completeness is off the table *)
      match Resilience.outcome_of_exn e with
      | Some _ -> Sound []
      | None -> raise e)

let certain_answers ?(variant = `Core) ?budget kb q =
  if Kb.Query.answer_vars q = [] then
    invalid_arg "Entailment.certain_answers: Boolean query";
  let outcome, final = chase_final ~variant ?budget kb in
  certain_answers_in_snapshot ~outcome final q

(* One core chase answers every constraint. *)
let inconsistent ?budget ?max_domain ~constraints kb =
  let outcome, final = chase_final ~variant:`Core ?budget kb in
  let indexed = Homo.Instance.of_atomset final in
  let verdicts =
    List.map
      (fun c -> decide_in_snapshot ?max_domain ~outcome indexed kb c)
      constraints
  in
  if List.exists (fun v -> v = Entailed) verdicts then Entailed
  else if List.for_all (fun v -> v = Not_entailed) verdicts then Not_entailed
  else Unknown "some constraint checks exhausted their budget"

let ucq_holds_in u inst =
  let indexed = Homo.Instance.of_atomset inst in
  List.exists (fun q -> holds_in_indexed q indexed) (Ucq.disjuncts u)

let decide_ucq ?budget ?(max_domain = 4) kb u =
  guard_verdict @@ fun () ->
  let outcome, final = chase_final ~variant:`Core ?budget kb in
  if ucq_holds_in u final then Entailed
  else if Resilience.terminated outcome then Not_entailed
  else
    match
      Modelfinder.find_model_upto ~max_domain ~forbid_all:(Ucq.disjuncts u) kb
    with
    | Some _ -> Not_entailed
    | None -> Unknown "chase budget exhausted; no countermodel either"
