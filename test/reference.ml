(* Executable specifications the production code is diffed against.

   Production runs one code path per concern: the flat indexed
   most-constrained-first hom solver, semi-naive (delta-anchored)
   trigger discovery and delta-scoped core folding.  The oracles those
   paths are checked against live here, next to the tests that use
   them:

   - [Boxed]: the tree-walking reference solver.  It performs the same
     search as [Homo.Hom] (same atom selection, same candidate buckets
     in the same order) on boxed terms, so the two must return the same
     witnesses in the same order.  [flat_selection] exposes the
     solver's own bucket choice for a boxed pattern, to compare with
     [Boxed.candidates];
   - [discovery_agrees] / [discover_all_agrees]: delta discovery against
     full discovery ([Trigger.discover] without [?delta]) on the same
     instance;
   - [round_checker]: the discovery check at every completed round of an
     engine, read off the [J_round] journal events the WAL sink uses;
   - [core_steps_agree] / [round_core_checker]: every core-chase step's
     (or round's) delta-scoped retraction against the [~scope:Full] one,
     up to isomorphism;
   - [core_by_atom]: a per-atom fold core to compare [Homo.Core]'s
     per-variable one with;
   - [Robust_ref]: the robust aggregations by their definitions, one
     top-down fold per prefix (or per fold index), to compare with the
     forward recurrence [Corechase.Robust] computes them by;
   - [Entail_ref]: chase-based entailment read off Proposition 1(3)
     directly, probing {e every} derivation element, to compare with
     [Corechase.Entailment]'s final-element probes;
   - [Analyze_ref]: the termination analysis as one eager fold running
     every criterion, to compare with [Analyze]'s lazy, cost-ordered
     report: same trail, same verdict, same route. *)

open Syntax

module Boxed = struct
  module TS = Set.Make (Term)

  (* the most selective index bucket for [pattern] under [sigma], read
     through the instance's public accessors: the predicate bucket, or
     the first strictly smaller position bucket of a bound argument *)
  let candidates tgt pattern sigma =
    let p = Atom.pred pattern in
    let best = ref (Homo.Instance.atoms_with_pred tgt p) in
    let best_n = ref (List.length !best) in
    List.iteri
      (fun i arg ->
        let img =
          match arg with
          | Term.Const _ -> Some arg
          | Term.Var _ -> Subst.find arg sigma
        in
        match img with
        | None -> ()
        | Some img ->
            let b = Homo.Instance.atoms_with_pred_pos_term tgt p i img in
            let n = List.length b in
            if n < !best_n then begin
              best := b;
              best_n := n
            end)
      (Atom.args pattern);
    !best

  (* [sigma] extended to map [pattern] onto [target], with the images of
     the variables it newly bound *)
  let extend sigma pattern target =
    if
      (not (String.equal (Atom.pred pattern) (Atom.pred target)))
      || Atom.arity pattern <> Atom.arity target
    then None
    else
      let rec go sigma fresh ps ts =
        match (ps, ts) with
        | [], [] -> Some (sigma, fresh)
        | p :: ps, t :: ts -> (
            match p with
            | Term.Const _ -> if Term.equal p t then go sigma fresh ps ts else None
            | Term.Var _ -> (
                match Subst.find p sigma with
                | Some img -> if Term.equal img t then go sigma fresh ps ts else None
                | None -> go (Subst.add p t sigma) (t :: fresh) ps ts))
        | _ -> None
      in
      go sigma [] (Atom.args pattern) (Atom.args target)

  (* [k] is called on every solution, in search order *)
  let solve ?(seed = Subst.empty) ?(injective = false) ~k src tgt =
    (* the unmatched source atoms live in the prefix [0, live), each
       with its original rank for tie-breaking *)
    let arr = Array.of_list (List.mapi (fun i a -> (i, a)) (Atomset.to_list src)) in
    let init_used =
      if not injective then TS.empty
      else
        List.fold_left
          (fun used v ->
            match Subst.find v seed with
            | Some img -> TS.add img used
            | None -> used)
          (TS.of_list (Atomset.consts src))
          (Atomset.vars src)
    in
    let rec go sigma used live =
      if live = 0 then k sigma
      else begin
        (* most-constrained-first: smallest candidate bucket, ties to
           the smallest original rank *)
        let count i = List.length (candidates tgt (snd arr.(i)) sigma) in
        let best = ref 0 and bc = ref (count 0) in
        for i = 1 to live - 1 do
          let c = count i in
          if c < !bc || (c = !bc && fst arr.(i) < fst arr.(!best)) then begin
            best := i;
            bc := c
          end
        done;
        let chosen = arr.(!best) in
        arr.(!best) <- arr.(live - 1);
        arr.(live - 1) <- chosen;
        let next = snd chosen in
        List.iter
          (fun target ->
            match extend sigma next target with
            | None -> ()
            | Some (sigma', fresh) ->
                if not injective then go sigma' used (live - 1)
                else
                  (* fresh images must be unused and pairwise distinct *)
                  let rec check used = function
                    | [] -> Some used
                    | img :: rest ->
                        if TS.mem img used then None
                        else check (TS.add img used) rest
                  in
                  Option.iter
                    (fun used' -> go sigma' used' (live - 1))
                    (check used fresh))
          (candidates tgt next sigma)
      end
    in
    go seed init_used (Array.length arr)

  let all ?seed ?injective src tgt =
    let acc = ref [] in
    solve ?seed ?injective ~k:(fun s -> acc := s :: !acc) src tgt;
    List.rev !acc

  exception Found of Subst.t

  let find ?seed ?injective src tgt =
    match solve ?seed ?injective ~k:(fun s -> raise (Found s)) src tgt with
    | () -> None
    | exception Found s -> Some s
end

(* The solver's flat bucket selection for [pattern] under [sigma]: the
   pattern's variables get slots, [sigma]'s images fill [bind]. *)
let flat_selection idx pattern sigma =
  let vars = Atom.vars pattern in
  let rec slot i x = function
    | [] -> assert false
    | v :: rest -> if Term.equal v x then i else slot (i + 1) x rest
  in
  let fargs =
    Array.of_list
      (List.map
         (fun t ->
           match t with
           | Term.Const _ -> Flat.code_of_term t
           | Term.Var _ -> lnot (slot 0 t vars))
         (Atom.args pattern))
  in
  let bind = Array.make (max 1 (List.length vars)) Flat.no_code in
  List.iteri
    (fun i x ->
      Option.iter (fun t -> bind.(i) <- Flat.code_of_term t) (Subst.find x sigma))
    vars;
  let fi = Homo.Instance.findex idx ~pred:(Flat.Symtab.intern (Atom.pred pattern)) in
  ( Homo.Instance.findex_count fi ~fargs ~bind,
    List.map
      (fun (e : Homo.Instance.fentry) -> e.boxed)
      (Homo.Instance.findex_items fi ~fargs ~bind) )

(* ------------------------------------------------------------------ *)
(* Trigger discovery *)

let same_triggers trs1 trs2 =
  List.length trs1 = List.length trs2
  && List.for_all (fun t1 -> List.exists (Chase.Trigger.equal t1) trs2) trs1

(* At a round boundary — [prev] the previous discovery's instance,
   [current] the next one's — delta discovery finds exactly the active
   triggers full discovery finds. *)
let discovery_agrees rules ~prev ~current =
  let idx = Homo.Instance.of_atomset current in
  let delta = Atomset.diff current prev in
  same_triggers
    (Chase.Trigger.discover ~delta rules idx)
    (Chase.Trigger.discover rules idx)

(* For any [prev ⊆ current]: delta enumeration is exactly the full
   enumeration's triggers whose body image touches the delta. *)
let discover_all_agrees rules ~prev ~current =
  let idx = Homo.Instance.of_atomset current in
  let delta = Atomset.diff current prev in
  let touches tr =
    not
      (Atomset.is_empty
         (Atomset.inter delta
            (Subst.apply (Chase.Trigger.mapping tr)
               (Rule.body (Chase.Trigger.rule tr)))))
  in
  same_triggers
    (Chase.Trigger.discover_all ~delta rules idx)
    (List.filter touches (Chase.Trigger.discover_all rules idx))

type round_check = { mutable rounds : int; mutable disagreements : int }

(* A journal checking discovery at every completed round: the engine's
   next discovery runs on the state's last instance with the delta
   against its pre-round snapshot ([snapshot_index]). *)
let round_checker rules =
  let c = { rounds = 0; disagreements = 0 } in
  let journal = function
    | Chase.Variants.J_round { state; snapshot_index } ->
        let d = state.Chase.Variants.state_derivation in
        let current = (Chase.Derivation.last d).Chase.Derivation.instance in
        let prev = Chase.Derivation.instance_at d snapshot_index in
        c.rounds <- c.rounds + 1;
        if not (discovery_agrees rules ~prev ~current) then
          c.disagreements <- c.disagreements + 1
    | _ -> ()
  in
  (c, journal)

(* ------------------------------------------------------------------ *)
(* Core maintenance *)

let isomorphic a b =
  Atomset.cardinal a = Atomset.cardinal b && Homo.Morphism.isomorphic a b

(* The cores [pre] retracts to with the fold search scoped by the delta
   against [before], and with [~scope:Full].  The delta is the atoms and
   the variables (the step's fresh nulls) new since [before]. *)
let scoped_and_full ~before pre =
  let old_vars = Atomset.vars before in
  let fresh =
    List.filter
      (fun x -> not (List.exists (Term.equal x) old_vars))
      (Atomset.vars pre)
  in
  let added = Atomset.to_list (Atomset.diff pre before) in
  let core scope = Subst.apply (Homo.Core.retraction_to_core ~scope pre) pre in
  (core (Homo.Core.Delta { fresh; added }), core Homo.Core.Full)

let scoped_core_agrees ~before pre =
  let scoped, full = scoped_and_full ~before pre in
  isomorphic scoped full

(* Every step of a core chase with per-application cadence and a
   simplified start: its delta-scoped retraction agrees with the full
   one, and so does the engine's [F_i]. *)
let core_steps_agree d =
  List.for_all
    (fun (s : Chase.Derivation.step) ->
      s.index = 0
      ||
      let scoped, full =
        scoped_and_full
          ~before:(Chase.Derivation.instance_at d (s.index - 1))
          s.pre_instance
      in
      isomorphic scoped full && isomorphic s.instance full)
    (Chase.Derivation.steps d)

(* A second complete core algorithm: fold away one non-ground atom at a
   time (an endomorphism into the atomset minus that atom) until none
   can go.  Ground atoms are fixed by every endomorphism, and a proper
   retraction omits some atom, so the result is a core. *)
let core_by_atom a =
  let rec go a =
    let idx = Homo.Instance.of_atomset a in
    let fold at =
      if Atom.is_ground at then None
      else Boxed.find a (Homo.Instance.remove_atoms idx [ at ])
    in
    match List.find_map fold (Atomset.to_list a) with
    | None -> a
    | Some h -> go (Subst.apply h a)
  in
  go a

(* A journal checking the per-round cadence's closing retraction: scoped
   by the round's whole delta against its pre-round instance. *)
let round_core_checker () =
  let c = { rounds = 0; disagreements = 0 } in
  let journal = function
    | Chase.Variants.J_round { state; snapshot_index } ->
        let d = state.Chase.Variants.state_derivation in
        let last = Chase.Derivation.last d in
        if last.Chase.Derivation.index > snapshot_index then begin
          c.rounds <- c.rounds + 1;
          if
            not
              (scoped_core_agrees
                 ~before:(Chase.Derivation.instance_at d snapshot_index)
                 last.Chase.Derivation.pre_instance)
          then c.disagreements <- c.disagreements + 1
        end
    | _ -> ()
  in
  (c, journal)

(* The robust aggregations read straight off Definition 16, from
   [tau_trace] and [g_at] only: every index gets its own trace, so one
   prefix costs a quadratic number of compositions. *)
module Robust_ref = struct
  module R = Corechase.Robust

  (* ⋃_{i≤upto} τ̄_i^k(G_i) *)
  let fold r ~upto ~k =
    List.fold_left
      (fun acc i ->
        Atomset.union acc (Subst.apply (R.tau_trace r ~from_:i ~to_:k) (R.g_at r i)))
      Atomset.empty
      (List.init (upto + 1) Fun.id)

  (* D⊛_j = ⋃_{i≤j} τ̄_i^j(G_i): the aggregation of the length-(j+1) prefix *)
  let prefix_aggregation r j = fold r ~upto:j ~k:j

  (* ⋃_{j≤i} τ̄_j^K(G_j), K the last index *)
  let aggregation_upto r i = fold r ~upto:i ~k:(R.length r - 1)

  (* the fold index whose [aggregation_upto] has the least treewidth bound,
     then the most atoms, then the latest index; the full aggregation
     when the derivation never simplifies *)
  let stable_aggregation r =
    let folds =
      List.filter_map
        (fun (st : Chase.Derivation.step) ->
          if Subst.is_empty st.simplification then None else Some st.index)
        (Chase.Derivation.steps (R.derivation r))
    in
    match folds with
    | [] -> prefix_aggregation r (R.length r - 1)
    | folds ->
        let scored =
          List.map
            (fun i ->
              let a = aggregation_upto r i in
              ((Treewidth.upper_bound a, -Atomset.cardinal a, -i), a))
            folds
        in
        snd
          (List.fold_left
             (fun (bs, ba) (s, a) -> if s < bs then (s, a) else (bs, ba))
             (List.hd scored) scored)
end

(* Entailment by scanning the whole derivation: [Q] is entailed when it
   maps into some element F_i, certain answers are the union over every
   element.  The production entry points probe F_final alone; the
   verdicts and their Unknown messages must agree byte for byte. *)
module Entail_ref = struct
  module E = Corechase.Entailment

  let run ~variant ?budget kb =
    match variant with
    | `Restricted -> Chase.Variants.restricted ?budget kb
    | `Core -> Chase.Variants.core ?budget kb

  (* index each element once; [check] probes it *)
  let exists_step (r : Chase.Variants.run) check =
    List.exists
      (fun st -> check (Homo.Instance.of_atomset st.Chase.Derivation.instance))
      (Chase.Derivation.steps r.derivation)

  let guard f =
    try f ()
    with e -> (
      match Resilience.outcome_of_exn e with
      | Some o -> E.Unknown (Resilience.outcome_name o)
      | None -> raise e)

  let stopped_why o =
    Fmt.str "chase stopped (%s) without finding the query"
      (Resilience.outcome_name o)

  let via_chase ?(variant = `Core) ?budget kb q =
    guard @@ fun () ->
    let r = run ~variant ?budget kb in
    if exists_step r (E.holds_in_indexed q) then E.Entailed
    else if r.outcome = Chase.Variants.Fixpoint then E.Not_entailed
    else E.Unknown (stopped_why r.outcome)

  let decide ?(variant = `Core) ?budget ?(max_domain = 4) kb q =
    guard @@ fun () ->
    match via_chase ~variant ?budget kb q with
    | (E.Entailed | E.Not_entailed) as v -> v
    | E.Unknown why1 -> (
        match E.via_countermodel ~max_domain kb q with
        | E.Not_entailed -> E.Not_entailed
        | E.Unknown why2 -> E.Unknown (why1 ^ "; " ^ why2)
        | E.Entailed -> assert false)

  let certain_answers ?(variant = `Core) ?budget kb q =
    let avars = Kb.Query.answer_vars q in
    let r = run ~variant ?budget kb in
    match
      List.concat_map
        (fun st ->
          Homo.Cq.certain_answers ~answer_vars:avars q
            st.Chase.Derivation.instance)
        (Chase.Derivation.steps r.derivation)
      |> List.sort_uniq (List.compare Term.compare)
    with
    | tuples ->
        if r.outcome = Chase.Variants.Fixpoint then E.Complete tuples
        else E.Sound tuples
    | exception e -> (
        match Resilience.outcome_of_exn e with
        | Some _ -> E.Sound []
        | None -> raise e)

  let decide_ucq ?budget ?(max_domain = 4) kb u =
    guard @@ fun () ->
    let r = run ~variant:`Core ?budget kb in
    let disjuncts = Ucq.disjuncts u in
    if
      exists_step r (fun idx ->
          List.exists (fun q -> E.holds_in_indexed q idx) disjuncts)
    then E.Entailed
    else if r.outcome = Chase.Variants.Fixpoint then E.Not_entailed
    else
      match Modelfinder.find_model_upto ~max_domain ~forbid_all:disjuncts kb with
      | Some _ -> E.Not_entailed
      | None -> E.Unknown "chase budget exhausted; no countermodel either"

  (* one [decide] per constraint, each with its own core chase *)
  let inconsistent ?budget ?(max_domain = 4) ~constraints kb =
    let vs = List.map (fun c -> decide ?budget ~max_domain kb c) constraints in
    if List.mem E.Entailed vs then E.Entailed
    else if List.for_all (( = ) E.Not_entailed) vs then E.Not_entailed
    else E.Unknown "some constraint checks exhausted their budget"
end

(* The analyzer as one eager fold: every criterion runs, in trail
   order, and the verdict is the join of the contributions of those that
   hold.  [Analyze] builds the same trail lazily and stops as soon as
   the question asked (certified? verdict?) is decided; its forced
   rendering, verdict and route must agree with this one byte for
   byte. *)
module Analyze_ref = struct
  open Analyze

  type report = {
    classes : Rclasses.report;
    criteria : criterion list;
    verdict : verdict;
  }

  let join a b = if verdict_rank a >= verdict_rank b then a else b

  let analyze ?(budget = default_budget) kb =
    let rules = Kb.rules kb in
    let classes = Rclasses.analyze rules in
    let has_egds = Kb.egds kb <> [] in
    let criteria = ref [] and verdict = ref Unknown in
    let crit ?(contributes = Unknown) name scope holds detail =
      criteria := { name; holds; scope; detail } :: !criteria;
      if holds then verdict := join !verdict contributes
    in
    let sure = if has_egds then Unknown else Terminates_all in
    crit "classes:datalog" Universal ~contributes:sure
      (classes.Rclasses.datalog && not has_egds)
      (if classes.Rclasses.datalog then "all rules are existential-free"
       else "some rule has existential variables");
    let acyclic =
      List.filter_map
        (fun (name, b) -> if b then Some name else None)
        [
          ("weakly-acyclic", classes.Rclasses.weakly_acyclic);
          ("jointly-acyclic", classes.Rclasses.jointly_acyclic);
          ("agrd", classes.Rclasses.agrd_sound);
        ]
    in
    crit "classes:acyclicity" Universal ~contributes:sure (acyclic <> [])
      (if acyclic = [] then "no acyclicity class holds"
       else String.concat " " acyclic);
    let grd = Grdcycles.diagnose rules in
    crit "grd:datalog-cycles" Universal ~contributes:sure
      grd.Grdcycles.datalog_cycles_only
      (match grd.Grdcycles.cyclic with
      | [] -> "dependency graph is acyclic"
      | sccs when grd.Grdcycles.datalog_cycles_only ->
          Printf.sprintf "%d cyclic scc(s), all datalog" (List.length sccs)
      | sccs ->
          let existential scc =
            List.exists
              (fun name ->
                List.exists
                  (fun r -> Rule.name r = name && not (Rule.is_datalog r))
                  rules)
              scc
          in
          let offending =
            match List.find_opt existential sccs with
            | Some scc -> scc
            | None -> List.hd sccs
          in
          Printf.sprintf "cyclic scc {%s} contains an existential rule%s"
            (String.concat " " offending)
            (if grd.Grdcycles.existential_frozen_cycle then
               " (also cyclic in the sound frozen graph)"
             else ""));
    crit "classes:guardedness" Universal
      ~contributes:(if has_egds then Unknown else Bts)
      (Rclasses.implies_bts classes)
      (if Rclasses.implies_bts classes then
         String.concat " "
           (List.filter_map
              (fun (name, b) -> if b then Some name else None)
              [
                ("linear", classes.Rclasses.linear);
                ("guarded", classes.Rclasses.guarded);
                ("frontier-guarded", classes.Rclasses.frontier_guarded);
                ("frontier-one", classes.Rclasses.frontier_one);
                ("weakly-guarded", classes.Rclasses.weakly_guarded);
                ("weakly-frontier-guarded", classes.Rclasses.weakly_frontier_guarded);
              ])
       else "no guardedness class holds");
    if has_egds then
      crit "egds:present" Universal true
        "EGDs present: semantic probes skipped, verdict capped at unknown"
    else begin
      let critical = Corechase.Probes.critical_instance rules in
      let skolem =
        Chase.Variants.Baseline.skolem ~budget (Kb.make ~facts:critical ~rules)
      in
      let fixpoint =
        Resilience.terminated skolem.Chase.Variants.Baseline.outcome
      in
      crit "critical:skolem-fixpoint" Universal ~contributes:Terminates_all
        fixpoint
        (if fixpoint then
           Printf.sprintf
             "skolem chase fixpoint on the critical instance (%d steps)"
             skolem.Chase.Variants.Baseline.steps
         else
           Printf.sprintf "no fixpoint within budget (%s)"
             (Resilience.outcome_name skolem.Chase.Variants.Baseline.outcome));
      let lin = Linearcheck.check ~budget kb in
      crit "linear:atomic-probes" Universal lin.Linearcheck.certified
        (match lin.Linearcheck.why_not with
        | Some why -> why
        | None ->
            if lin.Linearcheck.certified then
              Printf.sprintf "all %d atomic instances reach fixpoint"
                lin.Linearcheck.probes
            else
              Printf.sprintf "probe(s) missed fixpoint: %s"
                (String.concat " " lin.Linearcheck.failures));
      let ranks = Ranks.probe ~budget kb in
      crit "ranks:instance-fixpoint" Instance
        ~contributes:Terminates_restricted ranks.Ranks.fixpoint
        (if ranks.Ranks.fixpoint then
           Fmt.str "restricted fixpoint at rank %d (%a)" ranks.Ranks.max_rank
             Ranks.pp_frontier ranks.Ranks.frontier
         else
           Printf.sprintf "no fixpoint within budget (%s), rank reached %d"
             (Resilience.outcome_name ranks.Ranks.outcome)
             ranks.Ranks.max_rank)
    end;
    { classes; criteria = List.rev !criteria; verdict = !verdict }

  let certified r =
    verdict_rank r.verdict >= verdict_rank Terminates_restricted

  let route_of_report kb r =
    if Kb.egds kb <> [] then
      (Chase.Engine_core, "EGDs present: core engine with EGD-aware handling")
    else if r.classes.Rclasses.datalog then
      (Chase.Engine_datalog, "existential-free ruleset: semi-naive saturation")
    else if certified r then
      ( Chase.Engine_restricted,
        Printf.sprintf "termination certified (%s): restricted chase suffices"
          (verdict_name r.verdict) )
    else
      ( Chase.Engine_core,
        Printf.sprintf
          "no termination certificate (%s): core chase + robust aggregation"
          (verdict_name r.verdict) )

  let scope_name = function Universal -> "universal" | Instance -> "instance"

  let pp_report ppf r =
    Fmt.pf ppf "@[<v>%a@," Rclasses.pp_report r.classes;
    Fmt.pf ppf "criteria@,";
    List.iter
      (fun c ->
        Fmt.pf ppf "  %-3s %-24s %-9s %s@,"
          (if c.holds then "yes" else "no")
          c.name (scope_name c.scope) c.detail)
      r.criteria;
    Fmt.pf ppf "verdict: %s@]" (verdict_name r.verdict)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_json kb r =
    let choice, reason = route_of_report kb r in
    let criterion c =
      Printf.sprintf
        "{\"name\":\"%s\",\"holds\":%b,\"scope\":\"%s\",\"detail\":\"%s\"}"
        (json_escape c.name) c.holds (scope_name c.scope)
        (json_escape c.detail)
    in
    let flag name b = Printf.sprintf "\"%s\":%b" name b in
    let c = r.classes in
    let classes =
      String.concat ","
        [
          flag "datalog" c.Rclasses.datalog;
          flag "linear" c.Rclasses.linear;
          flag "guarded" c.Rclasses.guarded;
          flag "frontier_guarded" c.Rclasses.frontier_guarded;
          flag "frontier_one" c.Rclasses.frontier_one;
          flag "weakly_guarded" c.Rclasses.weakly_guarded;
          flag "weakly_frontier_guarded" c.Rclasses.weakly_frontier_guarded;
          flag "weakly_acyclic" c.Rclasses.weakly_acyclic;
          flag "jointly_acyclic" c.Rclasses.jointly_acyclic;
          flag "agrd_sound" c.Rclasses.agrd_sound;
        ]
    in
    Printf.sprintf
      "{\"verdict\":\"%s\",\"classes\":{%s},\"criteria\":[%s],\"route\":{\"engine\":\"%s\",\"reason\":\"%s\"}}"
      (verdict_name r.verdict) classes
      (String.concat "," (List.map criterion r.criteria))
      (Chase.engine_name choice) (json_escape reason)
end
