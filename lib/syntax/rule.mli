(** Existential rules / tuple-generating dependencies (Section 2).

    A rule [R = B → H] has nonempty finite body and head atomsets.  Body
    variables are {e universal}; variables shared between body and head are
    the {e frontier}; head-only variables are {e existential}.  A rule is
    identified with the sentence
    [∀X⃗ Y⃗. B[X⃗,Y⃗] → ∃Z⃗. H[X⃗,Z⃗]]. *)

type t = private {
  name : string;
  body : Atomset.t;
  head : Atomset.t;
}

val make : ?name:string -> body:Atom.t list -> head:Atom.t list -> unit -> t
(** @raise Invalid_argument if body or head is empty. *)

val make_sets : ?name:string -> body:Atomset.t -> head:Atomset.t -> unit -> t

val name : t -> string

val body : t -> Atomset.t

val head : t -> Atomset.t

val universal_vars : t -> Term.t list
(** All body variables, sorted by rank. *)

val frontier : t -> Term.t list
(** Variables occurring in both body and head. *)

val existential_vars : t -> Term.t list
(** Head-only variables. *)

val nonfrontier_universal_vars : t -> Term.t list
(** Body-only variables (the paper's [Y⃗]). *)

val is_datalog : t -> bool
(** No existential variable. *)

val vars : t -> Term.t list
(** All variables of the rule, sorted by rank. *)

val preds : t -> (string * int) list

val rename_apart : t -> t
(** A fresh-variable copy of the rule (same name).  Chase engines rename
    rules apart before matching so rule variables never collide with
    instance nulls. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : t Fmt.t
(** [name: body -> head]. *)
