(** Datalog saturation: the existential-free fragment, where the chase is
    plain fixpoint evaluation.

    Classical semi-naive (delta-driven) evaluation over one
    incrementally patched index: each round only matches rule bodies
    that use at least one atom derived in the previous round
    ({!Trigger.discover_all} with that delta).  The result is the unique
    minimal model of the datalog program over the facts. *)

open Syntax

val fold_rounds :
  Rule.t list -> Atomset.t -> init:'a -> ('a -> Atomset.t -> 'a) -> 'a
(** [fold_rounds rules facts ~init f] folds [f] over the instance after
    each round, [facts] first.  Every round starts at a
    {!Resilience.poll} site (and the [round] fault site), so under an
    ambient token the saturation stops between rounds with
    {!Resilience.Interrupted}; the last instance [f] saw is then a
    completed round.
    @raise Invalid_argument if some rule has existential variables. *)

val saturate : Rule.t list -> Atomset.t -> Atomset.t
(** [saturate rules facts], the last round of {!fold_rounds}.
    @raise Invalid_argument if some rule has existential variables. *)

val rounds : Rule.t list -> Atomset.t -> Atomset.t list
(** The instance after each round, [facts] first (for inspection and
    tests). *)
