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

(* A criterion, computed on demand, and the verdict it lends the report
   when it holds.  The contribution is known before the criterion runs,
   so a reader can skip every criterion that cannot change its answer. *)
type evidence = { contributes : verdict; criterion : criterion Lazy.t }

type report = {
  classes : Rclasses.report;
  trail : evidence list;
  verdict : verdict Lazy.t;
  certified : bool Lazy.t;
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

let holds e = (Lazy.force e.criterion).holds

let certifies e =
  verdict_rank e.contributes >= verdict_rank Terminates_restricted

(* The exact join over the trail, forcing a criterion only while its
   contribution could still raise the verdict: the syntactic criteria,
   then the skolem probe, then the rank probe, never the atomic probes. *)
let join_trail =
  List.fold_left
    (fun v e ->
      if verdict_rank e.contributes > verdict_rank v && holds e then
        e.contributes
      else v)
    Unknown

let analyze ?(budget = default_budget) kb =
  Obs.Metrics.incr (Lazy.force m_runs);
  let rules = Kb.rules kb in
  let classes = Rclasses.analyze rules in
  let has_egds = Kb.egds kb <> [] in
  let trail = ref [] in
  let add contributes criterion =
    let e = { contributes; criterion } in
    trail := e :: !trail;
    e
  in
  let crit ?(contributes = Unknown) name scope holds detail =
    ignore (add contributes (Lazy.from_val { name; holds; scope; detail }))
  in
  (* a semantic probe runs when first forced; [run] returns whether it
     holds, its detail and the number of chases it ran *)
  let probe ?(contributes = Unknown) name scope run =
    add contributes
      (lazy
        (let holds, detail, chases = run () in
         Obs.Metrics.add (Lazy.force m_probes) chases;
         { name; holds; scope; detail }))
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
     certificates below only cover TGD chases).  [by_cost] is the trail
     in the order [certified] tries it, cheapest first: the free
     criteria, the rank probe (one restricted chase of the KB), then
     the skolem chase of the critical instance. *)
  let by_cost =
    if has_egds then begin
      crit "egds:present" Universal true
        "EGDs present: semantic probes skipped, verdict capped at unknown";
      List.rev !trail
    end
    else begin
      let free = List.rev !trail in
      ignore (Lazy.force m_probes);
      let skolem =
        probe "critical:skolem-fixpoint" Universal ~contributes:Terminates_all
          (fun () ->
            let critical = Corechase.Probes.critical_instance rules in
            let skolem =
              Chase.Variants.Baseline.skolem ~budget
                (Kb.make ~facts:critical ~rules)
            in
            let fixpoint =
              Resilience.terminated skolem.Chase.Variants.Baseline.outcome
            in
            ( fixpoint,
              (if fixpoint then
                 Printf.sprintf
                   "skolem chase fixpoint on the critical instance (%d steps)"
                   skolem.Chase.Variants.Baseline.steps
               else
                 Printf.sprintf "no fixpoint within budget (%s)"
                   (Resilience.outcome_name
                      skolem.Chase.Variants.Baseline.outcome)),
              1 ))
      in
      (* justification only: contributes nothing, so no verdict forces it *)
      ignore
        (probe "linear:atomic-probes" Universal (fun () ->
             let lin = Linearcheck.check ~budget kb in
             ( lin.Linearcheck.certified,
               (match lin.Linearcheck.why_not with
               | Some why -> why
               | None ->
                   if lin.Linearcheck.certified then
                     Printf.sprintf "all %d atomic instances reach fixpoint"
                       lin.Linearcheck.probes
                   else
                     Printf.sprintf "probe(s) missed fixpoint: %s"
                       (String.concat " " lin.Linearcheck.failures)),
               lin.Linearcheck.probes )));
      let ranks =
        probe "ranks:instance-fixpoint" Instance
          ~contributes:Terminates_restricted (fun () ->
            let ranks = Ranks.probe ~budget kb in
            ( ranks.Ranks.fixpoint,
              (if ranks.Ranks.fixpoint then
                 Fmt.str "restricted fixpoint at rank %d (%a)"
                   ranks.Ranks.max_rank Ranks.pp_frontier ranks.Ranks.frontier
               else
                 Printf.sprintf "no fixpoint within budget (%s), rank reached %d"
                   (Resilience.outcome_name ranks.Ranks.outcome)
                   ranks.Ranks.max_rank),
              1 ))
      in
      free @ [ ranks; skolem ]
    end
  in
  let trail = List.rev !trail in
  let certified =
    lazy
      (let c = List.exists (fun e -> certifies e && holds e) by_cost in
       if c then Obs.Metrics.incr (Lazy.force m_certified);
       c)
  in
  { classes; trail; verdict = lazy (join_trail trail); certified }

let classes r = r.classes
let verdict r = Lazy.force r.verdict
let certified r = Lazy.force r.certified

(* The whole trail, probes forced in trail order. *)
let criteria r = List.map (fun e -> Lazy.force e.criterion) r.trail

(* The best verdict the criteria forced so far support.  It is the
   exact verdict once the trail, the verdict or the skolem probe has
   been forced; after routing alone it is the level of the criterion
   that certified. *)
let known r =
  List.fold_left
    (fun v e ->
      if Lazy.is_val e.criterion && holds e then join v e.contributes else v)
    Unknown r.trail

let route_of_report kb report =
  Obs.Metrics.incr (Lazy.force m_routed);
  (* forced first, for every KB, so [analyze.certified] counts each
     routed report the verdict certifies; free on datalog and EGD KBs *)
  let certified = certified report in
  if Kb.egds kb <> [] then
    (Chase.Engine_core, "EGDs present: core engine with EGD-aware handling")
  else if report.classes.Rclasses.datalog then
    (Chase.Engine_datalog, "existential-free ruleset: semi-naive saturation")
  else if certified then
    ( Chase.Engine_restricted,
      Printf.sprintf "termination certified (%s): restricted chase suffices"
        (verdict_name (known report)) )
  else
    ( Chase.Engine_core,
      Printf.sprintf "no termination certificate (%s): core chase + robust aggregation"
        (verdict_name (verdict report)) )

let route ?budget kb = fst (route_of_report kb (analyze ?budget kb))

let pp_report ppf r =
  let criteria = criteria r in
  Fmt.pf ppf "@[<v>%a@," Rclasses.pp_report r.classes;
  Fmt.pf ppf "criteria@,";
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-3s %-24s %-9s %s@,"
        (if c.holds then "yes" else "no")
        c.name
        (match c.scope with Universal -> "universal" | Instance -> "instance")
        c.detail)
    criteria;
  Fmt.pf ppf "verdict: %s@]" (verdict_name (verdict r))

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
  let criteria = criteria r in
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
    (verdict_name (verdict r)) classes
    (String.concat "," (List.map criterion criteria))
    (Chase.engine_name choice) (json_escape reason)
