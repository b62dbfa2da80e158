(** Shared rendering of entailment results (DESIGN.md §15).

    The batch CLI's [entail] subcommand and the server's [ENTAIL]
    handler both produce their verdict lines through this module, which
    is what makes the differential law — server session answers are
    byte-identical to batch CLI answers on the same KB — a statement
    about {e one} renderer exercised through two transports, rather
    than two renderers that happen to agree today. *)

open Syntax

(** How a result affects the CLI exit code / the server [ok] payload. *)
type severity =
  | Sev_ok  (** entailed / complete answers / consistent *)
  | Sev_not_entailed  (** exit code 1 *)
  | Sev_stopped  (** a budget stopped short of a verdict; exit code 2 *)

val worst : severity -> severity -> severity

val exit_code : severity -> int
(** [Sev_ok] ↦ 0, [Sev_not_entailed] ↦ 1, [Sev_stopped] ↦ 2 — the
    CLI's documented exit codes. *)

val severity_name : severity -> string
(** [ok] / [not-entailed] / [stopped]: the server's [ok]-frame payload
    for an ENTAIL response. *)

val verdict_line : Kb.Query.t -> Corechase.Entailment.verdict -> string * severity
(** The ["Q  ⟶  verdict"] line for a Boolean query. *)

val answers_line : Kb.Query.t -> Corechase.Entailment.answers -> string * severity
(** The ["Q  ⟶  n certain answer(s): …"] line for a query with
    answer variables ([≥n … (budget hit)] when only sound). *)

val constraints_line : Corechase.Entailment.verdict -> string * severity
(** The consistency line printed when the document has negative
    constraints ([Entailed] here means {e inconsistent}). *)

(** {1 One document, one chase} *)

(** What a document's queries are answered from: a chase run's outcome
    and final element, indexed once. *)
type snapshot = {
  outcome : Resilience.outcome;
  final : Atomset.t;
  indexed : Homo.Instance.t;
}

val chase_snapshot :
  variant:[ `Restricted | `Core ] -> budget:Chase.Variants.budget -> Kb.t ->
  snapshot
(** Run the chase once ({!Corechase.Entailment.chase_final}) and index
    its final element. *)

val document_lines :
  ?max_domain:int -> budget:Chase.Variants.budget -> Kb.t ->
  snapshot Lazy.t -> Dlgp.document -> string list * severity
(** Every result line of an ENTAIL document, in print order, and the
    worst severity among them: the
    {!constraints_line} when the document has negative constraints
    (their own core chase under [budget], countermodel domains up to
    [max_domain], default 4, as for the queries),
    then one {!verdict_line} / {!answers_line} per query, all decided
    from the one [snapshot] through
    {!Corechase.Entailment.decide_in_snapshot} and
    {!Corechase.Entailment.certain_answers_in_snapshot}.  The snapshot
    is forced only when the document has queries.  The batch CLI passes
    a fresh {!chase_snapshot}, the server the snapshot its last CHASE
    stamped — one evaluation function behind both transports. *)
