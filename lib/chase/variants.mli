(** The chase variants (Sections 1 and 3).

    {b Restricted (standard) chase} — applies only unsatisfied triggers, no
    simplification ([σ_i] = identity): a monotonic Definition-1 derivation.

    {b Core chase} — applies unsatisfied triggers and retracts to a core;
    the cadence is configurable: retract after every rule application
    (each [σ_i] produces a core, the paper's primary reading) or after
    every saturation round (Deutsch–Nash–Remmel's parallel formulation;
    still a core chase sequence since cores recur at finite distance).

    {b Scheduling} — both engines are round-based and breadth-first: the
    unsatisfied triggers of the current instance are collected, then
    applied in order, each re-checked for satisfaction just before
    application (an earlier application may have satisfied it).  In the
    limit this yields fair derivations; on finite prefixes
    {!Derivation.fairness_debt} quantifies the remainder.

    {b Oblivious / semi-oblivious (skolem) chase} — these apply triggers
    regardless of satisfaction, so they are *not* Definition-1 derivations;
    they are provided as the classical monotone baselines and return plain
    instance sequences. *)

open Syntax

type budget = {
  max_steps : int;  (** rule applications (trigger firings) *)
  max_atoms : int;  (** stop when the current instance exceeds this size *)
}

val default_budget : budget

(** Why a run stopped — the structured {!Resilience.outcome}, re-exported
    so [Variants.Fixpoint] etc. remain usable without opening that
    library (DESIGN.md §11).  Every engine catches [Stack_overflow],
    [Out_of_memory] and {!Resilience.Interrupted} at its loop boundary
    and reports them here, returning the last consistent instance. *)
type outcome = Resilience.outcome =
  | Fixpoint  (** fixpoint: no unsatisfied trigger remains *)
  | Step_budget  (** [max_steps] rule applications were performed *)
  | Atom_budget  (** the instance outgrew [max_atoms] *)
  | Deadline  (** the run's wall-clock deadline passed *)
  | Resource of Resilience.resource
      (** resource exhaustion caught at the engine boundary *)
  | Cancelled  (** the run's token was cancelled *)

type run = { derivation : Derivation.t; outcome : outcome; rounds : int }

type cadence = Every_application | Every_round

(** A resumable engine state, carried by the {!J_round} journal event
    after every {e completed} round (mid-round states are never offered:
    the active-trigger snapshot and its σ-traces would not survive
    serialization, see DESIGN.md §11) and accepted back via [?resume].
    Resuming an engine from a state it journaled — with the same KB,
    the same [Term] freshness-counter value, and the remaining budget —
    continues the run {e exactly}: derivation steps and final instance
    equal the uninterrupted run's. *)
type engine_state = {
  state_derivation : Derivation.t;
  state_steps : int;  (** rule applications performed so far *)
  state_rounds : int;  (** completed rounds *)
  state_snapshot : Atomset.t option;
      (** the pre-round discovery snapshot, i.e. the atomset the next
          round's delta is computed against *)
}

(** Per-step journal events (DESIGN.md §16), consumed by the WAL sink
    in [lib/storage] — the engines' only persistence hook.  Events are
    emitted in commit order, immediately after the engine's [d]/[idx]
    pair advances, so an append-only log of them replays to the
    engine's state at any prefix; a sink that raises is caught at the
    engine's resilience boundary like any other interruption. *)
type journal_event =
  | J_start of { sigma : Subst.t }  (** σ₀ of the start step *)
  | J_step of {
      index : int;
      pi_safe : Subst.t;
      sigma : Subst.t;
      added : Atom.t list;  (** the genuinely new atoms of the firing *)
    }
  | J_round_sigma of { index : int; sigma : Subst.t }
      (** a round-end simplification replaced step [index]'s σ *)
  | J_round of { state : engine_state; snapshot_index : int }
      (** completed-round boundary: the resumable [state], and the
          derivation index whose instance equals its pre-round discovery
          snapshot *)
  | J_merge of { sigma : Subst.t }
      (** an EGD unification ({!Egds.run} only; not resumable) *)

type journal = journal_event -> unit

val restricted :
  ?budget:budget ->
  ?token:Resilience.Token.t ->
  ?resume:engine_state ->
  ?journal:journal ->
  Kb.t ->
  run
(** Run the restricted chase from [K].  [token] arms a wall-clock
    deadline / cancellation for the run (polled at every round and step,
    inside homomorphism search, and on pool workers); [journal]
    receives the run's events, among them the engine state after each
    completed round ({!J_round}); [resume] continues from such a state
    instead of starting at [F_0]. *)

val core :
  ?budget:budget -> ?cadence:cadence -> ?simplify_start:bool ->
  ?token:Resilience.Token.t -> ?resume:engine_state -> ?journal:journal ->
  Kb.t -> run
(** Run the core chase.  [simplify_start] (default [true]) applies [σ_0] =
    retraction-to-core to the initial facts, matching [F_0 = σ_0(F)].
    [token]/[resume]/[journal] as in {!restricted}. *)

val frugal :
  ?budget:budget -> ?token:Resilience.Token.t -> ?resume:engine_state ->
  ?journal:journal -> Kb.t -> run
(** The frugal chase (Konstantinidis–Ambite; the paper's Section 3 notes
    that Definition 1 covers it): after each rule application, the
    simplification [σ_i] folds {e only the freshly created nulls} back
    into older terms where possible, leaving the older part untouched.
    Cheaper than a full core retraction, stronger than the restricted
    chase; sits strictly between the two in redundancy removal. *)

val stream :
  variant:[ `Restricted | `Core | `Frugal ] -> Kb.t -> Derivation.t Seq.t
(** The lazy chase: a sequence of growing derivation prefixes, one element
    per rule application — the computational reading of the paper's
    infinite sequences [(F_i)_{i∈ℕ}].  The sequence is infinite for
    non-terminating KBs (consume with [Seq.take]); it ends after the
    element whose last instance is a fixpoint.  Scheduling is the same
    round-based fair strategy as the eager engines. *)

(** The standard chase with equality-generating dependencies.  EGD steps
    unify terms across the whole instance, so they are neither monotonic
    nor Definition-1 simplifications; the engine is documented as the
    classical TGD+EGD chase (Deutsch–Nash–Remmel / Fagin et al.), kept
    separate from the paper's derivations. *)
module Egds : sig
  type outcome =
    | Terminated  (** fixpoint, all TGDs and EGDs satisfied *)
    | Stopped of Resilience.outcome
        (** the run stopped early — budget, deadline, cancellation or
            caught resource exhaustion; the trace ends with the last
            consistent instance *)
    | Failed of Egd.t
        (** hard failure: the EGD forced two distinct constants equal —
            the KB has no model *)

  type run = {
    trace : Atomset.t list;  (** instance after each phase *)
    outcome : outcome;
    steps : int;  (** TGD applications + EGD unifications *)
  }

  val run :
    ?budget:budget -> ?variant:[ `Restricted | `Core ] ->
    ?token:Resilience.Token.t -> ?journal:journal -> Kb.t -> run
  (** Alternate EGD saturation (unifying violated equalities, preferring
      constants and [<_X]-smaller variables as representatives) with TGD
      rounds of the chosen variant (default [`Restricted]). *)

  val violations : Egd.t list -> Atomset.t -> (Egd.t * Term.t * Term.t) list
  (** The (egd, image of left, image of right) triples with distinct
      images, for inspection. *)
end

(** Monotone baselines outside Definition 1. *)
module Baseline : sig
  type trace = {
    instances : Atomset.t list;
    outcome : Resilience.outcome;
    steps : int;
  }

  val oblivious : ?budget:budget -> ?token:Resilience.Token.t -> Kb.t -> trace
  (** Fires every trigger exactly once (per (rule, body-homomorphism)
      pair), regardless of satisfaction. *)

  val skolem : ?budget:budget -> ?token:Resilience.Token.t -> Kb.t -> trace
  (** Semi-oblivious: fires at most one trigger per (rule, frontier
      restriction) pair — equivalent to skolemisation. *)
end
