(** Typed WAL records and their total binary codec (DESIGN.md §16).

    One record is one durable event.  A chase run journals [Begin]
    (header + the counter values right after the KB parse), [Start]
    (σ₀ of the start step), one [Add] per rule application (the step's
    delta: genuinely-new atoms + the step's simplification), [Retract]
    when a round-end simplification replaces the last step's σ, and
    [Round] at every completed-round boundary (the only consistent cuts,
    carrying the term-freshness counter to re-pin on resume).  The EGD chase
    journals its unifications as [Merge].  Snapshot files carry
    [Snap_step] — the full Definition-1 step — instead of deltas.  The
    serve daemon journals [Sess_op] (canonical request text of
    OPEN/LOAD/CLOSE), [Sess_chase] (the stamped snapshot in full: chase
    results are {e not} re-executed on restart) and [Sess_gen].

    The codec is total: {!decode} returns [Error] on any byte soup —
    never an exception — with length/count fields validated against the
    remaining bytes before any allocation.  Laws in test/test_props.ml:
    [decode (encode r) = Ok r], random bytes never raise. *)

open Syntax

type t =
  | Begin of {
      engine : string;
      kb_path : string option;
      kb_digest : string option;
      max_steps : int;
      max_atoms : int;
      term_counter : int;
    }
  | Start of { sigma : Subst.t }
  | Add of {
      index : int;
      pi_safe : Subst.t;
      sigma : Subst.t;
      added : Atom.t list;
    }
  | Retract of { index : int; sigma : Subst.t }
  | Merge of { sigma : Subst.t }
  | Round of {
      rounds : int;
      steps : int;
      snapshot_index : int;  (** -1 encodes "no discovery snapshot yet" *)
      term_counter : int;
    }
  | Snap_step of {
      index : int;
      pi_safe : Subst.t;
      sigma : Subst.t;
      pre : Atom.t list;
      inst : Atom.t list;
    }
  | Sess_op of string
  | Sess_chase of {
      session : string;
      variant : string;
      max_steps : int;
      max_atoms : int;
      outcome : string;
      chase_steps : int;
      final : Atom.t list;
    }
  | Sess_gen of { session : string; generation : int }

val kind_name : t -> string
(** Stable kebab-case id: [begin], [start], [add], … *)

val encode : t -> string
(** Binary payload bytes (framed by {!Xlog.encode_frame}). *)

val decode : string -> (t, string) result
(** Total inverse of {!encode}.  Decoding a variable registers its rank
    with the global freshness counter ({!Syntax.Term.var_of_id}), so a
    chase log must be decoded {e after} the KB re-parse — same counter
    discipline as {!Wal.recover}. *)

val equal : t -> t -> bool
(** Structural equality (substitutions compared as maps). *)

val pp : t Fmt.t
(** Kind name only — records can be huge. *)
