(** Indexed instances: an {!Syntax.Atomset.t} wrapped with access structures
    for conjunctive matching.

    Three indexes are maintained, with cached bucket cardinalities:
    - by predicate: all atoms with a given predicate symbol;
    - by (predicate, position, term): all atoms with a given term at a given
      argument position;
    - by term: all atoms containing a given term at any position (used to
      locate the atoms a substitution can rewrite).

    Instances are immutable persistent values and {e incrementally
    updatable}: chase engines build the index once per run and patch it
    per step with {!add_atoms} / {!apply_subst} instead of rebuilding it
    per satisfaction check (see DESIGN.md §7 and the [abl:index]
    bench rows).

    Since the flat-representation refactor (DESIGN.md §12) the indexes
    are keyed on interned {!Syntax.Flat} codes — bucket selection
    compares ints, not strings or term trees — while every public
    accessor still takes and returns boxed atoms.  The solver-facing
    flat view ({!fentry}, {!findex}, {!findex_count}, {!findex_items},
    {!term_of_code}) exposes both representations of each stored atom so
    {!Hom.solve} can match on codes and still emit hint-exact boxed
    substitutions. *)

open Syntax

type t

val empty : t

val of_atomset : Atomset.t -> t

val add_atoms : t -> Atom.t list -> t
(** Insert atoms, updating every index; atoms already present are
    ignored.  [of_atomset s ≡ add_atoms empty (Atomset.to_list s)]. *)

val remove_atoms : t -> Atom.t list -> t
(** Remove atoms, updating every index; absent atoms are ignored. *)

val apply_subst : Subst.t -> t -> t
(** [apply_subst σ ins] is the instance of [σ(atomset ins)].  Only the
    atoms containing a term of [σ]'s domain are touched (found through
    the by-term buckets); all others keep their index entries, so a
    simplification step costs time proportional to the rewritten part,
    not to the whole instance. *)

val atomset : t -> Atomset.t

val cardinal : t -> int

val mem : t -> Atom.t -> bool

val atoms_with_pred : t -> string -> Atom.t list
(** All atoms with the given predicate (empty list if none). *)

val atoms_with_pred_pos_term : t -> string -> int -> Term.t -> Atom.t list
(** All atoms with the given term at the given 0-based position. *)

val atoms_with_term : t -> Term.t -> Atom.t list
(** All atoms containing the given term at some position. *)

type fentry = private { flat : Flat.t; boxed : Atom.t }
(** One stored atom, in both representations: [flat] drives matching,
    [boxed] is the original (hints intact) that solutions are built
    from.  [Flat.equal e.flat (Flat.encode e.boxed)] always holds. *)

type findex
(** A pattern's selection handle: the per-predicate index resolved once
    (per pattern, per solve call), so per-node bucket selection touches
    only int-keyed position maps — never the predicate table. *)

val findex : t -> pred:int -> findex
(** The handle for the interned predicate id [pred] (valid for this
    instance value only; an unknown id yields a handle whose buckets are
    all empty). *)

val findex_count : findex -> fargs:int array -> bind:int array -> int
(** Cardinality of the most selective bucket for a flat pattern:
    [fargs] is the pattern's argument codes with search variables
    encoded as [lnot slot], and [bind.(slot)] the code currently bound
    to that slot ([Flat.no_code] when unbound).  Integer map lookups
    only — no allocation, no atom list walked. *)

val findex_items : findex -> fargs:int array -> bind:int array -> fentry list
(** The entries of the bucket {!findex_count} measured, newest first —
    the same atoms, in the same order, as {!atoms_with_pred} /
    {!atoms_with_pred_pos_term} return for that bucket. *)

val term_of_code : t -> int -> Term.t option
(** A boxed witness of the given code among the instance's atoms:
    decoding through it preserves variable hints, which
    {!Syntax.Flat.term_of_code} cannot.  [None] if no stored atom
    contains the code. *)

val invariants_ok : t -> bool
(** Every index bucket (membership {e and} cached cardinality) agrees
    with a fresh rebuild from the atomset — the differential oracle for
    the incremental-update property tests. *)

val pp : t Fmt.t
