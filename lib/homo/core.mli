(** Cores of finite atomsets (Section 2).

    A finite atomset is a {e core} if its only retraction is the identity.
    Every finite atomset has a retract that is a core, unique up to
    isomorphism.  The core chase (and Definition 14's robust renaming)
    need the {e retraction} onto the core, not merely the core itself, so
    the central entry point here returns the substitution.

    Algorithm: repeatedly look for a variable [x] and an endomorphism of
    [A] into [A] minus the atoms containing [x] (a "fold" eliminating
    [x]); compose the folds; when no variable can be eliminated the image
    is a core.  The composite is a homomorphism [A → core] but not yet a
    retraction; its restriction to the core is an automorphism of the
    core, which we invert and pre-compose to obtain a genuine retraction
    (identity on the core's terms).  Completeness: a non-core finite
    atomset has a proper retraction, whose image omits at least one
    variable, so the per-variable fold search cannot miss it. *)

open Syntax

type scope =
  | Full  (** no precondition: search every variable *)
  | Delta of { fresh : Term.t list; added : Atom.t list }
      (** incremental-core precondition (DESIGN.md §9): the instance is
          [A ∪ D] where [A] was a core and [D] is one step's delta.
          [fresh] are the step's freshly invented nulls, [added] the
          atoms of [D] genuinely new in the instance (not re-derived
          duplicates).  The {e first} fold search is then delta-scoped —
          one identity-seeded search per alive fresh null plus one
          unifier-seeded search per (old atom → new delta atom) pair — a
          failure of all of them certifies the instance is still a core;
          once a fold fires the remaining loop reverts to the full
          search.  Counted by [core.scoped_searches] /
          [core.scoped_certified] / [core.full_fallbacks] and traced as
          [Core_scoped_fold] events. *)

val retraction_to_core : ?scope:scope -> Atomset.t -> Subst.t
(** A retraction [σ] of the atomset with [σ(A)] a core.  The identity
    substitution (empty) when the atomset is already a core.  [?scope]
    (default [Full]) may assert the incremental-core precondition; with
    a [Delta] scope whose precondition actually holds the result is a
    retraction onto a core exactly as with [Full], at delta-sized cost
    in the (dominant) no-fold case. *)

val retraction_to_core_indexed : ?scope:scope -> Instance.t -> Subst.t
(** Like {!retraction_to_core} on an already-indexed instance — chase
    engines maintain the index incrementally and pass it here instead of
    paying an [of_atomset] rebuild per simplification. *)

val of_atomset : Atomset.t -> Atomset.t
(** The core itself: [σ(A)] for [σ = retraction_to_core A]. *)

val is_core : Atomset.t -> bool

val core_with_retraction : Atomset.t -> Atomset.t * Subst.t
(** Both at once. *)
