open Syntax

(* Observability (DESIGN.md §8): enumeration work is counted at the two
   primitives discovery funnels through, so full and delta-anchored
   discovery both report the body homomorphisms they actually
   enumerated. *)
let m_enumerated = Obs.Metrics.counter "chase.triggers_enumerated"

let m_discoveries = Obs.Metrics.counter "chase.discoveries"

(* Allocation accounting (DESIGN.md §12): discovery is the second hot
   consumer of the flat representation after the hom search itself, so
   its minor-heap footprint is sampled the same way as [hom.minor_words]
   — a [Gc.minor_words] delta around each discovery call, main domain
   only (pool workers' shares are part of their own samples). *)
let m_minor_words = Obs.Metrics.counter "trigger.minor_words"

type t = { rule : Rule.t; mapping : Subst.t }

let make rule mapping =
  { rule; mapping = Subst.restrict (Rule.universal_vars rule) mapping }

let rule tr = tr.rule

let mapping tr = tr.mapping

let rename sigma tr =
  {
    tr with
    mapping =
      Subst.restrict (Rule.universal_vars tr.rule)
        (Subst.compose sigma tr.mapping);
  }

let equal tr1 tr2 =
  Rule.equal tr1.rule tr2.rule && Subst.equal tr1.mapping tr2.mapping

let is_trigger_for tr inst =
  Atomset.subset (Subst.apply tr.mapping (Rule.body tr.rule)) inst

let is_trigger_for_in tr indexed =
  Atomset.for_all
    (Homo.Instance.mem indexed)
    (Subst.apply tr.mapping (Rule.body tr.rule))

let satisfied_in tr indexed =
  (* π extends to a homomorphism from B ∪ H into the instance *)
  let src = Atomset.union (Rule.body tr.rule) (Rule.head tr.rule) in
  Homo.Hom.exists ~seed:tr.mapping src indexed

let satisfied tr inst = satisfied_in tr (Homo.Instance.of_atomset inst)

type application = {
  result : Atomset.t;
  pi_safe : Subst.t;
  produced : Atomset.t;
  fresh : Term.t list;
}

let pi_safe_of tr =
  let frontier_part = Subst.restrict (Rule.frontier tr.rule) tr.mapping in
  let fresh = ref [] in
  let full =
    List.fold_left
      (fun s z ->
        let nv = Term.fresh_var ~hint:(Term.hint z) () in
        fresh := nv :: !fresh;
        Subst.add z nv s)
      frontier_part
      (Rule.existential_vars tr.rule)
  in
  (full, List.rev !fresh)

let apply_with tr pi_safe fresh inst =
  if not (is_trigger_for tr inst) then
    invalid_arg "Trigger.apply: not a trigger for the instance";
  let produced = Subst.apply pi_safe (Rule.head tr.rule) in
  { result = Atomset.union inst produced; pi_safe; produced; fresh }

let apply tr inst =
  let pi_safe, fresh = pi_safe_of tr in
  apply_with tr pi_safe fresh inst

let apply_in tr indexed =
  if not (is_trigger_for_in tr indexed) then
    invalid_arg "Trigger.apply_in: not a trigger for the instance";
  let pi_safe, fresh = pi_safe_of tr in
  let produced = Subst.apply pi_safe (Rule.head tr.rule) in
  {
    result = Atomset.union (Homo.Instance.atomset indexed) produced;
    pi_safe;
    produced;
    fresh;
  }

let apply_with_pi_safe tr pi_safe inst =
  let fresh =
    List.filter_map
      (fun z ->
        match Subst.find z pi_safe with
        | Some t when Term.is_var t -> Some t
        | _ -> None)
      (Rule.existential_vars tr.rule)
  in
  apply_with tr pi_safe fresh inst

let triggers_of r indexed =
  let trs = List.map (fun h -> make r h) (Homo.Hom.all (Rule.body r) indexed) in
  if !Obs.Metrics.enabled then Obs.Metrics.add m_enumerated (List.length trs);
  trs

(* Semi-naive discovery: every trigger for the current instance that was
   not a trigger at the previous snapshot must map some body atom onto an
   atom of [delta] (the atoms added or rewritten since), so it suffices to
   enumerate the body homomorphisms anchored on a delta atom.  A
   homomorphism mapping several body atoms into [delta] is reached from
   each of those anchors; it is kept only at the first of them in body
   order, which is where the enumeration meets it first, so the result
   lists each trigger once, in first-reached order. *)
let triggers_of_delta r indexed ~delta =
  if Atomset.is_empty delta then []
  else
    let body = Rule.body r in
    let _, trs =
      Atomset.fold
        (fun anchor (earlier, acc) ->
          let first h =
            not
              (List.exists
                 (fun b -> Atomset.mem (Subst.apply_atom h b) delta)
                 earlier)
          in
          let acc =
            Atomset.fold
              (fun datom acc ->
                if
                  String.equal (Atom.pred anchor) (Atom.pred datom)
                  && Atom.arity anchor = Atom.arity datom
                then
                  match Homo.Hom.extend_via_atom Subst.empty anchor datom with
                  | None -> acc
                  | Some seed ->
                      List.fold_left
                        (fun acc h -> if first h then make r h :: acc else acc)
                        acc
                        (Homo.Hom.all ~seed body indexed)
                else acc)
              delta acc
          in
          (anchor :: earlier, acc))
        body ([], [])
    in
    let trs = List.rev trs in
    if !Obs.Metrics.enabled then Obs.Metrics.add m_enumerated (List.length trs);
    trs

(* Discovery fans out over the pool in two order-preserving stages
   (DESIGN.md §10): body-hom enumeration per rule, then the satisfaction
   re-check per candidate trigger.  Merging is positional — the per-rule
   lists are concatenated in rule order and the filter keeps the
   candidates' order — so the trigger list and the enumeration counters
   are identical to the sequential nesting for every jobs count. *)
let all_triggers ?delta rules indexed =
  let rule_triggers r =
    match delta with
    | None -> triggers_of r indexed
    | Some delta -> triggers_of_delta r indexed ~delta
  in
  List.concat (Par.map ~site:"trigger.enumerate" rule_triggers rules)

let unsatisfied_triggers_in ?delta rules indexed =
  let candidates = all_triggers ?delta rules indexed in
  let satisfied =
    Par.map ~site:"trigger.satcheck"
      (fun tr -> satisfied_in tr indexed)
      candidates
  in
  List.filter_map
    (fun (tr, sat) -> if sat then None else Some tr)
    (List.combine candidates satisfied)

let unsatisfied_triggers rules inst =
  unsatisfied_triggers_in rules (Homo.Instance.of_atomset inst)

let observe_discovery ~what trs indexed =
  Obs.Metrics.incr m_discoveries;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      (Obs.Trace.Trigger_found
         {
           engine = what;
           found = List.length trs;
           size = Homo.Instance.cardinal indexed;
         });
  trs

let discover ?delta rules indexed =
  let trs =
    Obs.Metrics.count_minor_words m_minor_words (fun () ->
        unsatisfied_triggers_in ?delta rules indexed)
  in
  observe_discovery ~what:"discover" trs indexed

let discover_all ?delta rules indexed =
  let trs =
    Obs.Metrics.count_minor_words m_minor_words (fun () ->
        all_triggers ?delta rules indexed)
  in
  observe_discovery ~what:"discover_all" trs indexed

let pp ppf tr =
  Fmt.pf ppf "(%s, %a)"
    (if Rule.name tr.rule = "" then "<rule>" else Rule.name tr.rule)
    Subst.pp tr.mapping
