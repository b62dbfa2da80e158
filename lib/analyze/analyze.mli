(** Static termination analysis and engine routing (DESIGN.md §13).

    Entry module of [corechase.analyze]: re-exports the semantic probes
    — {!Ranks} (k-boundedness estimation by bounded restricted-chase
    runs), {!Linearcheck} (Leclère-style one-atom-at-a-time probing for
    linear rules) and {!Grdcycles} (SCC refinement of the graph of rule
    dependencies) — and combines them with the syntactic
    {!Rclasses.analyze} report into a {!verdict} on the chase
    behaviour of a KB plus a machine-readable justification trail.

    The verdict lattice, least certain first:

    {v Unknown  ⊑  Bts  ⊑  Terminates_restricted  ⊑  Terminates_all v}

    - [Terminates_all]: every chase variant terminates on every
      instance over these rules (acyclicity classes, datalog-only GRD
      cycles, or a skolem fixpoint on the critical instance).
    - [Terminates_restricted]: the restricted chase of {e this} KB
      reaches a fixpoint — certified by actually running it to
      fixpoint within budget ({!Ranks}).  The {!Linearcheck} atomic
      probes are justification only: they appear in the trail on
      linear rules but contribute no verdict.
    - [Bts]: the ruleset is in a treewidth-bounded class (guardedness
      family) — querying is decidable but the chase may diverge.
    - [Unknown]: no criterion fired (or EGDs are present, which the
      termination criteria do not cover).

    Every criterion records its {!scope}: [Universal] facts hold for
    all instances over the ruleset, [Instance] facts only for the
    analysed KB. *)

module Ranks = Ranks
module Linearcheck = Linearcheck
module Grdcycles = Grdcycles

open Syntax

type verdict = Unknown | Bts | Terminates_restricted | Terminates_all

val verdict_name : verdict -> string
(** ["unknown" | "bts" | "terminates-restricted" | "terminates-all"]. *)

val verdict_rank : verdict -> int
(** Position in the lattice: [Unknown] is 0, [Terminates_all] is 3.
    Verdicts only ever compare along this chain. *)

type scope = Universal | Instance

type criterion = {
  name : string;  (** stable identifier, e.g. ["classes:acyclicity"] *)
  holds : bool;
  scope : scope;
  detail : string;  (** deterministic human-readable justification *)
}

type report
(** The analysis of one KB.  The syntactic criteria are computed with
    the report; each semantic probe (the skolem chase of the critical
    instance, the atomic probes, the rank-profiled restricted chase) is
    a memoised [Lazy.t] that runs the first time an accessor needs it,
    so a report costs only what its readers ask for.  [analyze.probes]
    counts the probe chases as they run.

    {b Domains.} A report must be forced only by the domain that owns
    it: in OCaml 5, forcing one [Lazy.t] from two domains at once raises
    [CamlinternalLazy.Undefined].  Build and read a report on one
    domain (serve caches it on its select loop); the probes themselves
    may still fan out over the pool. *)

val default_budget : Chase.Variants.budget
(** Budget for the semantic probes (smaller than the engine default:
    the analyzer must stay cheap relative to the chase it routes). *)

val analyze : ?budget:Chase.Variants.budget -> Kb.t -> report
(** Compute the syntactic criteria and set up the probes, running none
    of them.  With EGDs present the probes are skipped and the verdict
    is capped at [Unknown] (the certificates only cover TGD chases). *)

val classes : report -> Rclasses.report
(** The syntactic class landscape.  Forces nothing. *)

val certified : report -> bool
(** [verdict ⊒ Terminates_restricted], decided in cost order and
    stopping at the first criterion that certifies: the EGD cap and the
    syntactic criteria (free), then the rank probe (one restricted
    chase of the KB), then the skolem probe.  Without EGDs a report
    that is not certified has forced both probes, so its {!verdict}
    costs nothing more. *)

val verdict : report -> verdict
(** The exact join of every criterion.  Forces only what the join
    needs: the syntactic criteria, then the skolem probe, then the rank
    probe, stopping once [Terminates_all] is reached.  Never forces the
    atomic probes, which contribute no verdict. *)

val criteria : report -> criterion list
(** The justification trail in its fixed order.  Forces every probe,
    in trail order. *)

val route_of_report : Kb.t -> report -> Chase.engine_choice * string
(** The routing policy, as (decision, reason): semi-naive datalog for
    existential-free EGD-free KBs, the restricted engine when the
    report is {!certified}, the core engine (robust default) otherwise.
    Forces {!certified} and nothing else.  The reason names the verdict
    the forced evidence supports: exact when routing to core or once
    the trail has been forced, otherwise the level of the certificate
    (a rank-certified route reads [terminates-restricted] even where
    the skolem probe, not run, would raise the verdict). *)

val route : ?budget:Chase.Variants.budget -> Kb.t -> Chase.engine_choice
(** [route kb = fst (route_of_report kb (analyze kb))]: the cost
    [--engine auto] pays. *)

val pp_report : report Fmt.t
(** The pinned rendering used by [corechase analyze]: the class flags,
    one line per criterion, the verdict.  Forces the whole trail. *)

val to_json : Kb.t -> report -> string
(** Machine-readable justification trail (criteria, verdict, route).
    Forces the whole trail before routing. *)
