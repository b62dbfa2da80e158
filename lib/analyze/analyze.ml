module Ranks = Ranks
module Linearcheck = Linearcheck
module Grdcycles = Grdcycles

open Syntax

type verdict = Unknown | Bts | Terminates_restricted | Terminates_all

let verdict_name = function
  | Unknown -> "unknown"
  | Bts -> "bts"
  | Terminates_restricted -> "terminates-restricted"
  | Terminates_all -> "terminates-all"

let verdict_rank = function
  | Unknown -> 0
  | Bts -> 1
  | Terminates_restricted -> 2
  | Terminates_all -> 3

type scope = Universal | Instance

type criterion = { name : string; holds : bool; scope : scope; detail : string }

type report = {
  classes : Rclasses.report;
  criteria : criterion list;
  verdict : verdict;
}

let default_budget = Chase.Variants.{ max_steps = 500; max_atoms = 5_000 }

(* The analyze.* counters are registered lazily so that binaries which
   never run the analyzer keep their pinned metric tables unchanged
   (Metrics.pp_table prints every registered counter, zeros included). *)
let m_runs = lazy (Obs.Metrics.counter "analyze.runs")
let m_probes = lazy (Obs.Metrics.counter "analyze.probes")
let m_certified = lazy (Obs.Metrics.counter "analyze.certified")
let m_routed = lazy (Obs.Metrics.counter "analyze.routed")

let join a b = if verdict_rank a >= verdict_rank b then a else b

let analyze ?(budget = default_budget) kb =
  Obs.Metrics.incr (Lazy.force m_runs);
  let rules = Kb.rules kb in
  let classes = Rclasses.analyze rules in
  let has_egds = Kb.egds kb <> [] in
  let criteria = ref [] and verdict = ref Unknown in
  let crit ?(contributes = Unknown) name scope holds detail =
    criteria := { name; holds; scope; detail } :: !criteria;
    if holds then verdict := join !verdict contributes
  in
  (* Syntactic, universal-scope criteria. *)
  crit "classes:datalog" Universal
    ~contributes:(if has_egds then Unknown else Terminates_all)
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
  crit "classes:acyclicity" Universal
    ~contributes:(if has_egds then Unknown else Terminates_all)
    (acyclic <> [])
    (if acyclic = [] then "no acyclicity class holds"
     else String.concat " " acyclic);
  let grd = Grdcycles.diagnose rules in
  crit "grd:datalog-cycles" Universal
    ~contributes:(if has_egds then Unknown else Terminates_all)
    (grd.Grdcycles.datalog_cycles_only)
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
  (* also capped with EGDs: the treewidth-boundedness results are for
     TGD chases, and equality merges can defeat them *)
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
  (* Semantic probes — skipped when EGDs are present (the termination
     certificates below only cover TGD chases). *)
  if has_egds then
    crit "egds:present" Universal true
      "EGDs present: semantic probes skipped, verdict capped at unknown"
  else begin
    let critical = Corechase.Probes.critical_instance rules in
    let skolem =
      Chase.Variants.Baseline.skolem ~budget (Kb.make ~facts:critical ~rules)
    in
    Obs.Metrics.incr (Lazy.force m_probes);
    let fixpoint =
      Resilience.terminated skolem.Chase.Variants.Baseline.outcome
    in
    crit "critical:skolem-fixpoint" Universal ~contributes:Terminates_all
      fixpoint
      (if fixpoint then
         Printf.sprintf "skolem chase fixpoint on the critical instance (%d steps)"
           skolem.Chase.Variants.Baseline.steps
       else
         Printf.sprintf "no fixpoint within budget (%s)"
           (Resilience.outcome_name skolem.Chase.Variants.Baseline.outcome));
    let lin = Linearcheck.check ~budget kb in
    Obs.Metrics.add (Lazy.force m_probes) lin.Linearcheck.probes;
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
    Obs.Metrics.incr (Lazy.force m_probes);
    crit "ranks:instance-fixpoint" Instance ~contributes:Terminates_restricted
      ranks.Ranks.fixpoint
      (if ranks.Ranks.fixpoint then
         Fmt.str "restricted fixpoint at rank %d (%a)" ranks.Ranks.max_rank
           Ranks.pp_frontier ranks.Ranks.frontier
       else
         Printf.sprintf "no fixpoint within budget (%s), rank reached %d"
           (Resilience.outcome_name ranks.Ranks.outcome)
           ranks.Ranks.max_rank)
  end;
  let report = { classes; criteria = List.rev !criteria; verdict = !verdict } in
  if verdict_rank report.verdict >= verdict_rank Terminates_restricted then
    Obs.Metrics.incr (Lazy.force m_certified);
  report

let route_of_report kb report =
  Obs.Metrics.incr (Lazy.force m_routed);
  if Kb.egds kb <> [] then
    (Chase.Engine_core, "EGDs present: core engine with EGD-aware handling")
  else if report.classes.Rclasses.datalog then
    (Chase.Engine_datalog, "existential-free ruleset: semi-naive saturation")
  else if verdict_rank report.verdict >= verdict_rank Terminates_restricted then
    ( Chase.Engine_restricted,
      Printf.sprintf "termination certified (%s): restricted chase suffices"
        (verdict_name report.verdict) )
  else
    ( Chase.Engine_core,
      Printf.sprintf "no termination certificate (%s): core chase + robust aggregation"
        (verdict_name report.verdict) )

let route ?budget kb = fst (route_of_report kb (analyze ?budget kb))

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a@," Rclasses.pp_report r.classes;
  Fmt.pf ppf "criteria@,";
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-3s %-24s %-9s %s@,"
        (if c.holds then "yes" else "no")
        c.name
        (match c.scope with Universal -> "universal" | Instance -> "instance")
        c.detail)
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
      (json_escape c.name) c.holds
      (match c.scope with Universal -> "universal" | Instance -> "instance")
      (json_escape c.detail)
  in
  let classes =
    let flag name b = Printf.sprintf "\"%s\":%b" name b in
    String.concat ","
      [
        flag "datalog" r.classes.Rclasses.datalog;
        flag "linear" r.classes.Rclasses.linear;
        flag "guarded" r.classes.Rclasses.guarded;
        flag "frontier_guarded" r.classes.Rclasses.frontier_guarded;
        flag "frontier_one" r.classes.Rclasses.frontier_one;
        flag "weakly_guarded" r.classes.Rclasses.weakly_guarded;
        flag "weakly_frontier_guarded" r.classes.Rclasses.weakly_frontier_guarded;
        flag "weakly_acyclic" r.classes.Rclasses.weakly_acyclic;
        flag "jointly_acyclic" r.classes.Rclasses.jointly_acyclic;
        flag "agrd_sound" r.classes.Rclasses.agrd_sound;
      ]
  in
  Printf.sprintf
    "{\"verdict\":\"%s\",\"classes\":{%s},\"criteria\":[%s],\"route\":{\"engine\":\"%s\",\"reason\":\"%s\"}}"
    (verdict_name r.verdict) classes
    (String.concat "," (List.map criterion r.criteria))
    (Chase.engine_name choice) (json_escape reason)
