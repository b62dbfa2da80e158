(** Linear-rule termination probing, one atom at a time (Leclère,
    Mugnier, Thomazo, Ulliana: "A Single Approach to Decide Chase
    Termination on Linear Existential Rules").

    For a linear ruleset (every body is a single atom) the restricted
    chase explores each atom independently: the chase from an instance
    [I] is the union of the chases from [I]'s atoms, so termination on
    every instance reduces to termination on every {e atomic} instance.
    Up to renaming there are finitely many atomic instances per
    predicate — one per equality partition of its argument positions —
    so we enumerate them (Bell(k) partitions for arity [k ≤ ]{!max_arity})
    and run a budgeted restricted chase from each.

    All probes reaching [Fixpoint] shows restricted-chase termination
    from every atomic instance under the engine's fair round-based
    strategy only.  The analyzer prints the result as justification and
    never certifies a verdict from it, so a strategy-sensitive ruleset
    can never be certified by this probe. *)

open Syntax

val max_arity : int
(** Probed predicates are capped at this arity (4 ⇒ ≤ 15 partitions). *)

type result = {
  applicable : bool;
      (** linear ruleset, no EGDs, every body predicate within
          {!max_arity} *)
  certified : bool;  (** applicable and every atomic probe reached fixpoint *)
  probes : int;  (** atomic instances chased *)
  failures : string list;
      (** probes that missed fixpoint, as ["p/2{01}"] — predicate/arity
          plus the position partition, blocks in order *)
  why_not : string option;  (** reason when not applicable *)
}

val partitions : 'a list -> 'a list list list
(** All set partitions, deterministic order (exposed for tests). *)

val check : ?budget:Chase.Variants.budget -> Kb.t -> result
