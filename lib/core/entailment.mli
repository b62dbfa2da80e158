(** CQ entailment procedures (Proposition 1(3), Proposition 9, Theorems 1–2).

    Three engines are provided:

    - {!via_chase}: the "yes" semi-decision procedure.  Every derivation
      element [F_i] is universal for [K] (Proposition 1(1)), so [Q ↪ F_i]
      certifies [K ⊨ Q]; a terminated chase whose result does not receive
      [Q] certifies [K ⊭ Q] (the result is then a universal model).
    - {!via_countermodel}: the "no" semi-decision procedure.  A finite
      model of [F ∧ Σ ∧ ¬Q] certifies [K ⊭ Q].  (The paper's Theorem 1
      searches treewidth-bounded models via Courcelle; we search
      domain-size-bounded models — see DESIGN.md §1.)
    - {!decide}: Theorem 1's skeleton — both procedures with increasing
      budgets; each is sound, so the first verdict wins.

    Every chase-based entry point probes the {e final} derivation
    element only.  Each [F_i] maps homomorphically into every later
    element (Proposition 1: a step adds the atoms of one trigger
    application, then applies a simplification, itself a homomorphism),
    so [Q ↪ F_i] for some [i] iff [Q ↪ F_final],
    and a constant answer tuple found in any element persists into the
    final one (homomorphisms fix constants).  {!decide} and
    {!certain_answers} are therefore one chase followed by
    {!decide_in_snapshot} / {!certain_answers_in_snapshot}, the
    functions the server answers from (DESIGN.md §15). *)

open Syntax

type verdict =
  | Entailed
  | Not_entailed
  | Unknown of string  (** budgets exhausted; the message says which *)

val pp_verdict : verdict Fmt.t

val holds_in : Kb.Query.t -> Atomset.t -> bool
(** [Q] maps homomorphically into the instance. *)

val holds_in_indexed : Kb.Query.t -> Homo.Instance.t -> bool
(** As {!holds_in} on a pre-indexed instance — index a chase element once
    and probe many queries/disjuncts against it. *)

val via_chase :
  ?variant:[ `Restricted | `Core ] -> ?budget:Chase.Variants.budget ->
  Kb.t -> Kb.Query.t -> verdict
(** Chase once, then probe [Q] against the indexed final element.
    Default variant: [`Core] (the variant that terminates whenever a
    finite universal model exists). *)

val chase_final :
  variant:[ `Restricted | `Core ] -> ?budget:Chase.Variants.budget ->
  Kb.t -> Resilience.outcome * Atomset.t
(** Run the chosen chase variant once: its outcome and final derivation
    element, the snapshot every chase-based entry point answers from. *)

val via_countermodel : max_domain:int -> Kb.t -> Kb.Query.t -> verdict
(** [Not_entailed] if a countermodel with at most [max_domain] elements
    exists; [Unknown] otherwise (never [Entailed]). *)

val decide :
  ?variant:[ `Restricted | `Core ] -> ?budget:Chase.Variants.budget ->
  ?max_domain:int -> Kb.t -> Kb.Query.t -> verdict
(** Runs {!via_chase} (with the chosen chase variant, default [`Core])
    then, if inconclusive, {!via_countermodel} (defaults: the chase
    default budget; domains up to 4) — i.e. {!decide_in_snapshot} on
    the chase's final element.  [`Restricted] is the engine the
    analyzer routes to when it certifies termination: on such KBs both
    variants reach a universal model, so the verdict is unchanged. *)

val decide_in_snapshot :
  ?max_domain:int ->
  outcome:Resilience.outcome ->
  Homo.Instance.t ->
  Kb.t ->
  Kb.Query.t ->
  verdict
(** [decide_in_snapshot ~outcome indexed kb q] decides [q] against a
    chased snapshot: [indexed] is the (indexed) final chase element and
    [outcome] the run's outcome.  Because every derivation element maps
    homomorphically into the final one, probing the snapshot alone
    yields exactly the verdict — including the [Unknown] message — that
    {!decide} on the same KB and budget computes, without re-running
    the chase.  The "no" side falls back to {!via_countermodel} when
    the snapshot is not a fixpoint.  This is the server's read path:
    one chase writer, many snapshot readers (DESIGN.md §15). *)

type answers =
  | Complete of Term.t list list
      (** the chase terminated: exactly the certain answers *)
  | Sound of Term.t list list
      (** budget exhausted: every listed tuple is certain, more may exist *)

val certain_answers :
  ?variant:[ `Restricted | `Core ] -> ?budget:Chase.Variants.budget ->
  Kb.t -> Kb.Query.t -> answers
(** Certain answers of a query with distinguished variables: all-constant
    images of the answer variables over the final chase element
    ({!certain_answers_in_snapshot}).  Soundness before termination
    comes from every derivation element being universal for [K]
    (Proposition 1(1)); no earlier element holds a constant tuple the
    final one lacks, since they all map forward into it.
    @raise Invalid_argument on Boolean queries (use {!decide}). *)

val certain_answers_in_snapshot :
  outcome:Resilience.outcome -> Atomset.t -> Kb.Query.t -> answers
(** Certain answers of a non-Boolean query over a chased snapshot;
    agrees with {!certain_answers} on the same KB and budget (constant
    tuples persist along the derivation's forward homomorphisms).
    @raise Invalid_argument on Boolean queries. *)

val ucq_holds_in : Ucq.t -> Atomset.t -> bool
(** Some disjunct maps homomorphically into the instance. *)

val decide_ucq :
  ?budget:Chase.Variants.budget -> ?max_domain:int -> Kb.t -> Ucq.t ->
  verdict
(** UCQ entailment: [K ⊨ ⋁ qᵢ] iff some disjunct maps into a universal
    model (UCQs are homomorphism-preserved).  The chase side checks the
    final core-chase element against the union (it receives every
    earlier element, Proposition 1); the countermodel side refutes
    {e all} disjuncts simultaneously — note a disjunct-wise [decide] would
    be unsound for the "no" direction, since each disjunct could fail in a
    different model. *)

val inconsistent :
  ?budget:Chase.Variants.budget -> ?max_domain:int ->
  constraints:Kb.Query.t list -> Kb.t -> verdict
(** Negative-constraint checking: [Entailed] here means "the KB violates
    some constraint" (a constraint body is entailed); [Not_entailed] means
    consistent (w.r.t. the given constraints).  One core chase answers
    every constraint through {!decide_in_snapshot}: any [Entailed]
    verdict makes the KB inconsistent, all [Not_entailed] make it
    consistent, anything else is [Unknown]. *)
