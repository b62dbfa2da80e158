(** Homomorphism search (Section 2).

    A homomorphism from an atomset [A] to an atomset [B] is a substitution
    [π] with [π(A) ⊆ B].  Constants are fixed; variables may map to any
    term.  Deciding existence is the classical NP-complete CQ-evaluation
    problem; we use backtracking with dynamic most-constrained-atom-first
    ordering over the indexed target, matching on interned
    {!Syntax.Flat} codes (DESIGN.md §4, §12). *)

open Syntax

val extend_via_atom : Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** [extend_via_atom σ pattern target] extends [σ] so that the [pattern]
    atom maps onto the [target] atom, or [None] if predicates, arities,
    constants or existing bindings clash.  Exposed for unit testing and for
    single-atom matching in dependency analysis. *)

val find :
  ?seed:Subst.t -> ?injective:bool -> Atomset.t -> Instance.t -> Subst.t option
(** [find src tgt] is a homomorphism from [src] into [tgt] extending
    [seed] (default: empty), restricted to the variables of [src] not bound
    by the seed plus the seed itself.  With [~injective:true] the returned
    substitution is injective on [terms src] (constants included: a variable
    may not map onto a term that is already an image).  The search is
    deterministic: the same question against the same instance value
    returns the same witness. *)

val exists :
  ?seed:Subst.t -> ?injective:bool -> Atomset.t -> Instance.t -> bool

val all :
  ?seed:Subst.t -> ?injective:bool -> ?limit:int -> Atomset.t -> Instance.t ->
  Subst.t list
(** All homomorphisms (up to [limit], default unlimited), in search order.
    Each is restricted to the variables of [src] (plus seed bindings). *)

val count :
  ?seed:Subst.t -> ?injective:bool -> ?limit:int -> Atomset.t -> Instance.t ->
  int

val iter :
  ?seed:Subst.t -> ?injective:bool -> (Subst.t -> unit) -> Atomset.t ->
  Instance.t -> unit

val maps_to : Atomset.t -> Atomset.t -> bool
(** [maps_to a b]: [a] maps to [b] (builds a temporary index for [b]).  This
    is semantic entailment [b ⊨ a] for atomsets read as existentially
    closed conjunctions. *)

val find_into : Atomset.t -> Atomset.t -> Subst.t option
(** Like {!maps_to} but returns the witness. *)

val max_depth : int ref
(** Stack-overflow guard (DESIGN.md §11): the search recurses once per
    source atom, so {!find}/{!solve}-family entry points raise
    [Stack_overflow] {e deterministically} when the source has more than
    [!max_depth] atoms, instead of hitting the runtime guard page at an
    unpredictable depth.  The chase engines classify it as
    [Resource `Stack_overflow] and return their last consistent
    instance.  Default 50_000; [CORECHASE_HOM_DEPTH] overrides at
    startup; tests lower it to force the path on small inputs. *)
