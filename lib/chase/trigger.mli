(** Triggers and rule application (Section 2).

    A trigger for an instance [I] is a pair [tr = (R, π)] where [π] maps
    [body(R)] into [I].  It is {e satisfied} in [I] when [π] extends to a
    homomorphism from [body(R) ∪ head(R)] into [I].  Applying [tr] on [I]
    produces [α(I, tr) = I ∪ π_safe(head(R))] where [π_safe] maps frontier
    variables through [π] and existential variables to globally fresh
    nulls (footnote 2 of the paper). *)

open Syntax

type t = private { rule : Rule.t; mapping : Subst.t }

val make : Rule.t -> Subst.t -> t
(** [make r π].  [π] is restricted to the universal variables of [r]. *)

val rule : t -> Rule.t

val mapping : t -> Subst.t

val rename : Subst.t -> t -> t
(** The paper's [σ(tr) = (R, σ • π)]. *)

val equal : t -> t -> bool
(** Same rule (by name and content) and same mapping on the rule's
    universal variables. *)

val is_trigger_for : t -> Atomset.t -> bool
(** [π(body R) ⊆ I]. *)

val is_trigger_for_in : t -> Homo.Instance.t -> bool
(** As {!is_trigger_for} on a pre-indexed instance (membership checks
    against the index, no subset materialisation). *)

val satisfied : t -> Atomset.t -> bool
(** Satisfaction in an arbitrary instance: [π] maps the body into it and
    extends to the head. *)

val satisfied_in : t -> Homo.Instance.t -> bool
(** As {!satisfied} on a pre-indexed instance. *)

type application = {
  result : Atomset.t;  (** [α(I, tr)] *)
  pi_safe : Subst.t;  (** the safe extension used *)
  produced : Atomset.t;  (** [π_safe(head R)] — the atoms added *)
  fresh : Term.t list;  (** the fresh nulls created, by existential var order *)
}

val apply : t -> Atomset.t -> application
(** @raise Invalid_argument if the trigger does not hold in the instance. *)

val apply_in : t -> Homo.Instance.t -> application
(** As {!apply} on a pre-indexed instance; [result] is
    [atomset indexed ∪ produced]. *)

val apply_with_pi_safe : t -> Subst.t -> Atomset.t -> application
(** Replay an application with a {e given} safe extension (used by the
    robust-sequence construction, which must reuse "the same fresh
    variables as in [α(F_{i-1}, tr)]", Definition 15). *)

val triggers_of : Rule.t -> Homo.Instance.t -> t list
(** All triggers of a rule for an instance (one per body homomorphism),
    in deterministic search order. *)

val triggers_of_delta :
  Rule.t -> Homo.Instance.t -> delta:Atomset.t -> t list
(** Semi-naive discovery: the triggers of the rule whose body image
    contains at least one atom of [delta], found by enumerating body
    homomorphisms anchored on a delta atom (one seeded search per
    (body atom, delta atom) pair with matching predicate), deduplicated.
    Sound for engines because a trigger for the current instance that was
    not a trigger at the previous snapshot must use an atom added or
    rewritten since — i.e. an atom of [current \ snapshot]. *)

val unsatisfied_triggers : Rule.t list -> Atomset.t -> t list
(** All triggers of the rules that are {e not} satisfied — the restricted
    chase's active triggers. *)

val unsatisfied_triggers_in : ?delta:Atomset.t -> Rule.t list -> Homo.Instance.t -> t list
(** As {!unsatisfied_triggers} on a pre-indexed instance.  With [?delta],
    discovery is restricted to delta-anchored triggers
    ({!triggers_of_delta}). *)

val discover : ?delta:Atomset.t -> Rule.t list -> Homo.Instance.t -> t list
(** The engine entry point for active-trigger (unsatisfied) discovery.
    [?delta] is the atoms added or rewritten since the caller's previous
    discovery; only triggers anchored on a delta atom are enumerated
    ({!triggers_of_delta}).  Omitted on the first round: full
    enumeration.  Full enumeration on the same instance is the
    specification the delta form is tested against: at an engine's
    round boundary both find the same set, because every trigger whose
    body image avoids the delta was already discovered, and dealt with,
    in an earlier round. *)

val discover_all : ?delta:Atomset.t -> Rule.t list -> Homo.Instance.t -> t list
(** As {!discover} but without the satisfaction filter — all triggers, for
    the oblivious/skolem baselines (which deduplicate by trigger key
    themselves).  With [?delta], exactly the triggers whose body image
    touches [delta]. *)

val pp : t Fmt.t
