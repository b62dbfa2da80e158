(** Terms of the existential-rule formalism (Section 2 of the paper).

    The term universe is [Δ_T = Δ_C ∪ Δ_V]: a countably infinite set of
    constants (written in lowercase in the paper) and a countably infinite,
    disjoint set of variables (uppercase).  We conflate labelled nulls with
    variables, exactly as the paper does.

    Variables carry a globally unique integer {e rank}.  The paper's robust
    renaming (Definition 14) assumes a bijection [rank : Δ_V → ℕ] inducing a
    total order [<_X]; our ranks are that bijection.  Freshly generated
    variables always receive ranks strictly larger than every rank issued
    before, which realises footnote 2 ("fresh" means globally fresh across
    the whole computation). *)

type var = private { id : int; hint : string }
(** A variable: [id] is its rank (unique over the whole process), [hint] a
    display name.  Equality and ordering use [id] only. *)

type t =
  | Const of string  (** a constant of [Δ_C] *)
  | Var of var  (** a variable / labelled null of [Δ_V] *)

val fresh_var : ?hint:string -> unit -> t
(** [fresh_var ()] creates a globally fresh variable.  Ranks are issued by a
    monotone counter, so a variable created later is always [<_X]-greater. *)

val var_of_id : ?hint:string -> int -> t
(** [var_of_id i] builds the variable of rank [i] (registering [i] with the
    freshness counter so later [fresh_var] calls stay fresh).  Used by
    deterministic generators (e.g. the zoo's X_i^j grids) and parsers. *)

val const : string -> t
(** [const c] is the constant named [c]. *)

val is_var : t -> bool

val is_const : t -> bool

val rank : t -> int
(** [rank t] is the rank of variable [t].
    @raise Invalid_argument on constants. *)

val hint : t -> string
(** Display name: the hint for variables, the name for constants. *)

val compare : t -> t -> int
(** Total order: constants (by name) before variables (by rank). *)

val compare_by_rank : t -> t -> int
(** The paper's [<_X] order extended to terms: variables compared by rank;
    constants are smaller than all variables (they never get renamed, which
    is what Definition 14 needs). *)

val equal : t -> t -> bool

val hash : t -> int

val pp : t Fmt.t
(** Prints constants bare and variables as their hint (falling back to
    [?n] for hint-less variables of rank n). *)

val pp_debug : t Fmt.t
(** Like {!pp} but always shows variable ranks, e.g. [X#42]. *)

val with_local_counter : ?from:int -> (unit -> 'a) -> 'a
(** [with_local_counter f] runs [f] with the calling domain drawing ranks
    from a private counter starting at [from] (default 0) instead of the
    process-wide one; the previous counter (local or global) is restored
    on exit.  This is the term-level half of {!Par.Batch} task isolation
    (DESIGN.md §14): N independent tasks batched across the pool each
    mint exactly the ranks a sequential loop over them would, instead of
    interleaving draws from the shared counter.  Within the scope,
    freshness is only guaranteed against terms minted in the same scope
    — callers must not mix terms across isolation scopes. *)

val reset_counter_for_tests : unit -> unit
(** Resets the global freshness counter.  Only for test isolation. *)

val counter_value : unit -> int
(** Current value of the global freshness counter: the next rank
    {!fresh_var} would issue.  Persisted by the chase's write-ahead log so a
    resumed run mints exactly the variables the uninterrupted run would
    have (DESIGN.md §11). *)

val restore_counter_for_resume : int -> unit
(** Set the freshness counter to an exact value, {e downward included}.
    Only sound when every term minted above the new value is being
    discarded — i.e. from WAL recovery (the aborted run's data is
    dropped wholesale) before any new term is built.  Everywhere else,
    use {!Term.var_of_id}'s monotone bump. *)
