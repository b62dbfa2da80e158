(** Chase engines for existential rules (Sections 2–3 of the paper).

    Entry module of the [chase] library.  {!Trigger} implements triggers
    and rule application [α(I, tr)]; {!Derivation} the paper's
    Definition-1 derivations (with simplification traces and fairness
    accounting); {!Variants} the concrete engines: restricted, core,
    frugal (Definition-1 instances) and the oblivious/skolem baselines. *)

module Trigger : module type of Trigger

module Derivation : module type of Derivation

module Datalog : module type of Datalog

module Variants : module type of Variants

open Syntax

type variant = Oblivious | Skolem | Restricted | Frugal | Core

val variant_name : variant -> string

type report = {
  variant : variant;
  outcome : Resilience.outcome;
      (** why the run stopped: fixpoint, a specific budget, the
          wall-clock deadline, caught resource exhaustion, or
          cancellation (DESIGN.md §11) *)
  steps : int;  (** rule applications performed *)
  final : Atomset.t;  (** last instance computed *)
  sizes : int list;  (** instance sizes along the run, [F_0 …] *)
}

val run :
  ?budget:Variants.budget ->
  ?token:Resilience.Token.t ->
  ?resume:Variants.engine_state ->
  ?journal:Variants.journal ->
  variant ->
  Kb.t ->
  report
(** Run any variant under a budget and report uniformly.  For
    [Restricted], [Frugal] and [Core] the run is a Definition-1
    derivation; use {!Variants} directly to inspect it.  [token] arms a
    wall-clock deadline / cancellation; [journal] receives the per-step
    {!Variants.journal_event}s (the WAL sink, DESIGN.md §16), among them
    the round-boundary {!Variants.engine_state} that [resume] accepts
    back.
    @raise Invalid_argument when [resume]/[journal] is passed with
    [Oblivious] or [Skolem] (no derivation to journal). *)

type engine_choice = Engine_datalog | Engine_restricted | Engine_core
(** Routing targets for the static analyzer (DESIGN.md §13): semi-naive
    datalog saturation for full rules, the restricted chase when
    termination is certified, the core chase otherwise. *)

val engine_name : engine_choice -> string

val run_engine :
  ?budget:Variants.budget ->
  ?token:Resilience.Token.t ->
  engine_choice ->
  Kb.t ->
  report
(** Run the routed engine.  [Engine_datalog] performs semi-naive
    saturation — on an existential-free program this {e is} the restricted
    chase, so the report carries [variant = Restricted] and always ends in
    [Fixpoint]; the budget applies to the other two engines.
    @raise Invalid_argument if [Engine_datalog] is chosen for a KB with
    existential rules or EGDs. *)

val is_model_of_rules : Rule.t list -> Atomset.t -> bool
(** Every trigger of every rule is satisfied in the instance. *)

val is_model : Kb.t -> Atomset.t -> bool
(** The instance receives the facts homomorphically and satisfies every
    rule — modelhood in the paper's sense (Section 2). *)
