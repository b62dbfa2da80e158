(** Robust renaming, robust sequences and robust aggregation
    (Definitions 14–16, Proposition 10, Lemma 1) — the paper's central
    construction.

    The natural aggregation [D* = ⋃ F_i] of a non-monotonic derivation may
    fail to be a model (atoms that were retracted away linger in the
    union).  The robust aggregation instead unions {e collapsed} versions
    of the [F_i]: each simplification is propagated backwards through a
    rank-minimising renaming, so that variables are re-mapped only finitely
    often (Proposition 10) and the limit [D⊛ = ⋃ τ̂(G_i)] is a model that
    is {e finitely universal} (Proposition 11) and inherits any recurring
    treewidth bound of the derivation (Proposition 12.2).

    The total order [<_X] on variables required by Definition 14 is the
    rank order of {!Syntax.Term} (ranks are a bijection with ℕ).

    We materialise the construction for a finite derivation prefix; the
    prefix aggregation [⋃_{i≤k} τ̄_i^k(G_i)] converges to [D⊛] as the
    prefix grows. *)

open Syntax

val robust_renaming : Atomset.t -> Subst.t -> Subst.t
(** [robust_renaming a σ] is [ρ_σ] for a retraction [σ] of [a]: it maps
    each variable [X] of [σ(a)] to the [<_X]-smallest variable of
    [σ⁻¹(X)].  An isomorphism from [σ(a)] onto [τ_σ(a)].
    @raise Invalid_argument if [σ] is not a retraction of [a]. *)

val tau_of : Atomset.t -> Subst.t -> Subst.t
(** [τ_σ = ρ_σ • σ]. *)

type step = {
  index : int;
  a_prime : Atomset.t;  (** [A'_i = ρ_{i-1}(A_i)]; [A'_0 = F] *)
  sigma_prime : Subst.t;  (** [σ'_i = ρ_{i-1} • σ_i • ρ_{i-1}⁻¹]; [σ'_0 = σ_0] *)
  f_prime : Atomset.t;  (** [F'_i = σ'_i(A'_i) = ρ_{i-1}(F_i)] *)
  renaming : Subst.t;  (** [ρ_{σ'_i}] *)
  g : Atomset.t;  (** [G_i] *)
  rho : Subst.t;  (** [ρ_i : F_i → G_i], an isomorphism *)
  tau : Subst.t;  (** [τ_i = ρ_{σ'_i} • σ'_i]  (maps [G_{i-1}] into [G_i]) *)
}

type t

val of_derivation : Chase.Derivation.t -> t
(** Build the robust sequence associated with the derivation prefix. *)

val derivation : t -> Chase.Derivation.t

val length : t -> int

val step : t -> int -> step

val steps : t -> step list

val g_at : t -> int -> Atomset.t

val tau_trace : t -> from_:int -> to_:int -> Subst.t
(** [τ̄_i^j = τ_j • ⋯ • τ_{i+1}] (identity when [i = j]). *)

val aggregation : t -> Atomset.t
(** The prefix robust aggregation [⋃_{i≤k} τ̄_i^k(G_i)] where [k] is the
    last index of the prefix, computed in one forward pass by the exact
    recurrence [D⊛_0 = G_0], [D⊛_{j+1} = τ_{j+1}(D⊛_j) ∪ G_{j+1}]. *)

val aggregation_upto : t -> int -> Atomset.t
(** [aggregation_upto r i = ⋃_{j≤i} τ̄_j^K(G_j)] with [K] the prefix's last
    index: only the first [i+1] elements contribute, but their atoms are
    still pushed through every later [τ].  [aggregation_upto r K =
    aggregation r]; the family is ⊆-monotone in [i] (Lemma 1(i)).
    Computed as [τ̄_i^K(D⊛_i)], linear in the prefix length. *)

val stable_aggregation : t -> Atomset.t
(** The full prefix aggregation always carries the last instance verbatim
    ([τ̄_K^K] is the identity), i.e. the not-yet-folded frontier transient.
    This function instead returns the {!aggregation_upto} at the
    simplification boundary of minimal treewidth (ties: largest, latest) —
    on the staircase this is exactly the stable column [Ĩ^h] of Section 8.
    Both aggregations converge to [D⊛] as the prefix grows.  Two linear
    passes over the prefix plus one treewidth bound per fold index. *)

val check_invariants : t -> (unit, string) result
(** Validate the construction on the prefix: each [σ'_i] is a retraction
    of [A'_i], each [ρ_i] an isomorphism [F_i → G_i], each [τ_i] maps
    [G_{i-1}] into [G_i], and the [τ̄(G_i)] increase monotonically
    (Lemma 1(i)) — checked as: the forward aggregation of the full prefix
    equals the independent top-down fold [⋃ τ̄_i^K(G_i)].  Linear in the
    prefix length.  Used by tests and the experiment harness. *)
