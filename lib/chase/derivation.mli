(** Derivations (Definitions 1–3) and their natural aggregation (Section 3).

    A derivation from [K = (F, Σ)] is a sequence [((tr_i, σ_i, F_i))_{i∈I}]
    where [tr_i] is a trigger for [F_{i-1}] not satisfied in [F_{i-1}], the
    simplification [σ_i] is a retraction, and
    [F_i = σ_i(α(F_{i-1}, tr_i))] (with [F_0 = σ_0(F)]).

    We materialise finite prefixes.  Each step also records the
    pre-simplification instance [A_i = α(F_{i-1}, tr_i)] and the safe
    extension used, which the robust-sequence construction (Definition 15)
    replays. *)

open Syntax

type step = {
  index : int;
  trigger : Trigger.t option;  (** [None] for step 0 *)
  pi_safe : Subst.t;  (** safe extension used at this step (empty at 0) *)
  pre_instance : Atomset.t;  (** [A_i = α(F_{i-1}, tr_i)]; [F] at step 0 *)
  simplification : Subst.t;  (** [σ_i], a retraction of [pre_instance] *)
  instance : Atomset.t;  (** [F_i = σ_i(A_i)] *)
}

type t

val start : ?simplification:Subst.t -> Kb.t -> t
(** The length-1 prefix [F_0 = σ_0(F)] (default [σ_0] = identity).
    @raise Invalid_argument if [σ_0] is not a retraction of [F]. *)

val of_steps : Kb.t -> step list -> t
(** Rebuild a derivation from recorded steps (WAL recovery,
    {!Chase.Variants.engine_state}).  Checks that indices run
    consecutively from 0 and that each [instance = σ(pre_instance)];
    triggers are typically [None] on reloaded steps, so Definition-1
    side conditions are {e not} replayed (use {!validate} on a
    derivation that still carries its triggers).
    @raise Invalid_argument on an empty list or a structural violation. *)

val kb : t -> Kb.t

val length : t -> int
(** Number of elements [F_0 … F_{k}]: [length d = k+1]. *)

val step : t -> int -> step
(** @raise Invalid_argument when out of range. *)

val steps : t -> step list
(** In order [0 … k]. *)

val last : t -> step

val instance_at : t -> int -> Atomset.t

val extend : ?validate:bool -> t -> Trigger.t -> simplification:Subst.t -> t
(** Apply a trigger to the last instance and simplify.  With
    [~validate:true] (default), checks Definition 1's side conditions:
    the trigger holds and is unsatisfied in [F_{k}], and the
    simplification is a retraction of [α(F_k, tr)].
    @raise Invalid_argument on violation. *)

val extend_applied :
  ?validate:bool -> t -> Trigger.t -> Trigger.application ->
  simplification:Subst.t -> t
(** Like {!extend} when the application has already been computed. *)

val replace_last_simplification : ?validate:bool -> t -> Subst.t -> t
(** Re-simplify the last step with a different retraction of its
    pre-instance (used by the per-round core chase cadence, which decides
    the round's closing retraction only once the round has ended).
    @raise Invalid_argument on step 0 or if not a retraction. *)

val is_monotonic : t -> bool
(** [F_{i-1} ⊆ F_i] for all recorded steps. *)

val validate : t -> (unit, string) result
(** Re-check every Definition-1 side condition of the recorded prefix:
    step 0 is a retraction of the KB's facts; each later step's trigger
    held and was unsatisfied in the previous instance, its pre-instance is
    [α(F_{i-1}, tr_i)] with the recorded safe extension, its
    simplification is a retraction of the pre-instance and [F_i = σ_i(A_i)].
    This makes derivations independently checkable proof objects (see
    {!Corechase.Certificate}). *)

val sigma_trace : t -> from_:int -> to_:int -> Subst.t
(** Definition 2's [σ̄_i^j = σ_j • ⋯ • σ_{i+1}] ([from_ = i ≤ j = to_];
    the identity when [i = j]). *)

val natural_aggregation : t -> Atomset.t
(** [D* = ⋃_i F_i] over the prefix (Section 3). *)

val fairness_debt : t -> (int * Trigger.t) list
(** Finite-prefix fairness check (Definition 3): the pairs [(i, tr)] such
    that [tr] is a trigger for [F_i] whose trace [σ̄_i^j(tr)] is satisfied
    in no recorded [F_j], [j ≥ i].  A terminated derivation is fair iff
    this is empty; for an unterminated prefix a nonempty debt is the work
    that fairness obliges the future to do. *)

val is_fair_prefix : t -> bool
(** [fairness_debt d = []]. *)

val pp_summary : t Fmt.t
(** One line per step: index, rule, instance size. *)
