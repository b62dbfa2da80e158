(* One renderer for entailment results, shared by the batch CLI and the
   server session handler so the differential law (server ≡ CLI, byte
   for byte) is enforced by construction rather than by coincidence. *)

open Syntax
module E = Corechase.Entailment

type severity = Sev_ok | Sev_not_entailed | Sev_stopped

let rank = function Sev_ok -> 0 | Sev_not_entailed -> 1 | Sev_stopped -> 2
let worst a b = if rank a >= rank b then a else b
let exit_code = rank

let severity_name = function
  | Sev_ok -> "ok"
  | Sev_not_entailed -> "not-entailed"
  | Sev_stopped -> "stopped"

let verdict_line q v =
  let sev =
    match v with
    | E.Entailed -> Sev_ok
    | E.Not_entailed -> Sev_not_entailed
    | E.Unknown _ -> Sev_stopped
  in
  (Fmt.str "%a  ⟶  %a" Kb.Query.pp q E.pp_verdict v, sev)

let tuples_str tuples =
  String.concat " "
    (List.map
       (fun t ->
         "("
         ^ String.concat ", " (List.map (fun x -> Fmt.str "%a" Term.pp x) t)
         ^ ")")
       tuples)

let answers_line q = function
  | E.Complete tuples ->
      ( Fmt.str "%a  ⟶  %d certain answer(s): %s" Kb.Query.pp q
          (List.length tuples) (tuples_str tuples),
        Sev_ok )
  | E.Sound tuples ->
      ( Fmt.str "%a  ⟶  ≥%d certain answer(s) (budget hit): %s" Kb.Query.pp q
          (List.length tuples) (tuples_str tuples),
        Sev_stopped )

let constraints_line = function
  | E.Entailed -> ("KB is INCONSISTENT (a constraint body is entailed)", Sev_ok)
  | E.Not_entailed -> ("constraints: consistent", Sev_ok)
  | E.Unknown m -> (Fmt.str "constraints: unknown (%s)" m, Sev_stopped)

(* --- one ENTAIL document ---------------------------------------------- *)

type snapshot = {
  outcome : Resilience.outcome;
  final : Atomset.t;
  indexed : Homo.Instance.t;
}

let chase_snapshot ~variant ~budget kb =
  let outcome, final = E.chase_final ~variant ~budget kb in
  { outcome; final; indexed = Homo.Instance.of_atomset final }

let document_lines ?max_domain ~budget kb snapshot (doc : Dlgp.document) =
  (* the consistency line first, as printed; the bindings fix the order
     in which the two chases run *)
  let constraints =
    match doc.Dlgp.constraints with
    | [] -> []
    | constraints ->
        [
          constraints_line
            (E.inconsistent ~budget ?max_domain ~constraints kb);
        ]
  in
  let queries =
    List.map
      (fun q ->
        let s = Lazy.force snapshot in
        if Kb.Query.is_boolean q then
          verdict_line q
            (E.decide_in_snapshot ?max_domain ~outcome:s.outcome s.indexed kb q)
        else
          answers_line q
            (E.certain_answers_in_snapshot ~outcome:s.outcome s.final q))
      doc.Dlgp.queries
  in
  let lines = constraints @ queries in
  ( List.map fst lines,
    List.fold_left (fun acc (_, s) -> worst acc s) Sev_ok lines )
