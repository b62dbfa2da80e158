(** Flat interned atom representation (DESIGN.md §12).

    The hot path of homomorphism search and instance maintenance runs on
    a flat mirror of the boxed {!Term.t}/{!Atom.t} trees:

    - predicate names and constant strings are interned into dense
      non-negative ids by a process-wide, mutex-protected symbol table;
    - a variable of {!Term} rank [r] is encoded as the negative code
      [lnot r] — the PR-4 [Atomic] freshness counter carries over
      unchanged, and the two sign classes can never collide;
    - an atom is a predicate id plus an [int array] of term codes, with
      O(arity) integer hash/equal and an allocation-free substitution
      application into a reusable scratch array.

    The boxed API remains the parse/print boundary ([Dlgp], WAL
    records, trace sinks): {!encode}/{!decode} convert at the edges, and
    [decode ∘ encode] is the identity up to {!Atom.equal} (variable
    hints, which equality ignores, are not stored flat — consumers that
    print keep the boxed originals). *)

module Symtab : sig
  val intern : string -> int
  (** Id of the symbol, allocating a fresh dense id on first sight.
      Thread-safe (shared across [Par] worker domains). *)

  val find : string -> int option
  (** Id of the symbol if already interned; never allocates an id. *)

  val name : int -> string
  (** Inverse of {!intern}.  @raise Invalid_argument on unknown ids. *)

  val size : unit -> int
  (** Number of interned symbols (monotone; the table never shrinks). *)
end

val no_code : int
(** Sentinel ([min_int]) used by searches for "unbound"; never a valid
    code ({!code_of_var_rank} of any real rank is [> min_int]). *)

val code_of_term : Term.t -> int
(** Constants intern (non-negative id); variables encode as [lnot rank]
    (negative).  Total and injective up to {!Term.equal}. *)

val code_of_term_opt : Term.t -> int option
(** Query-side encoding: [None] for a constant that was never interned
    (so index probes cannot grow the symbol table). *)

val term_of_code : int -> Term.t
(** Decode a code back to a boxed term.  Constants round-trip exactly;
    variables come back with an empty hint (rank — the identity — is
    preserved, and {!Term.equal} ignores hints).  Callers that need
    hint-exact terms keep a side map from codes to their boxed
    originals, as {!Homo.Instance} does.
    @raise Invalid_argument on {!no_code}. *)

val is_var_code : int -> bool

val code_of_var_rank : int -> int

val rank_of_code : int -> int
(** Inverse of {!code_of_var_rank} (both are [lnot]). *)

type t = { pred : int; args : int array }
(** One flat atom.  The [args] array is owned by the atom: callers must
    not mutate it after construction (instances share these arrays
    freely across persistent versions). *)

val make : int -> int array -> t

val pred : t -> int

val args : t -> int array

val arity : t -> int

val is_ground : t -> bool

val encode : Atom.t -> t
(** Interns the predicate and every constant argument. *)

val decode : t -> Atom.t
(** [decode (encode a)] equals [a] up to {!Atom.equal}. *)

val equal : t -> t -> bool
(** O(arity) over ints.  Agrees with {!Atom.equal} through {!encode}:
    [equal (encode a) (encode b) = Atom.equal a b]. *)

val compare : t -> t -> int

val hash : t -> int
(** O(arity) integer mixing — no polymorphic-hash traversal, no
    allocation.  [equal a b] implies [hash a = hash b]. *)

val pp : t Fmt.t
(** Debug printer over raw codes ([#pred(c1,c2)]); use {!decode} and
    {!Atom.pp} for human-readable output. *)

module Subst : sig
  type flat := t

  type t = (int, int) Hashtbl.t
  (** Variable code -> term code. *)

  val of_subst : Subst.t -> t

  val apply_code : t -> int -> int

  val apply_into : t -> args:int array -> scratch:int array -> bool
  (** Write σ(args) into the prefix of [scratch] (length ≥ [args]) and
      report whether any code moved — zero allocations, the primitive
      behind incremental {!Homo.Instance.apply_subst}.  Agrees with the
      boxed {!Syntax.Subst.apply_atom} through {!encode} (tested in
      [test_props.ml]).
      @raise Invalid_argument if [scratch] is shorter than [args]. *)

  val apply : t -> flat -> flat
  (** Allocating convenience wrapper (returns the input when σ leaves
      the atom fixed). *)
end
