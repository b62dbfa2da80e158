(** Chase engines for existential rules (Sections 2–3 of the paper).

    Entry module of the [chase] library: re-exports {!Trigger},
    {!Derivation} and {!Variants}, and offers a uniform runner. *)

module Trigger = Trigger
module Derivation = Derivation
module Datalog = Datalog
module Variants = Variants

open Syntax

type variant = Oblivious | Skolem | Restricted | Frugal | Core

let variant_name = function
  | Oblivious -> "oblivious"
  | Skolem -> "skolem"
  | Restricted -> "restricted"
  | Frugal -> "frugal"
  | Core -> "core"

type report = {
  variant : variant;
  outcome : Resilience.outcome;  (** why the run stopped (DESIGN.md §11) *)
  steps : int;  (** rule applications performed *)
  final : Atomset.t;  (** last instance computed *)
  sizes : int list;  (** instance sizes along the run, [F_0 …] *)
}

(** Run any variant under a budget and report uniformly.  For [Restricted]
    and [Core] the run is a Definition-1 derivation; use
    {!Variants.restricted} / {!Variants.core} directly to inspect it.
    [token] bounds the run in wall-clock time / supports cancellation;
    [resume]/[journal] (derivation engines only — [Oblivious] and
    [Skolem] reject them) thread the round-boundary states of
    {!Variants.engine_state} through. *)
let run ?budget ?token ?resume ?journal variant kb =
  let of_baseline (t : Variants.Baseline.trace) =
    {
      variant;
      outcome = t.Variants.Baseline.outcome;
      steps = t.Variants.Baseline.steps;
      final =
        List.nth t.Variants.Baseline.instances
          (List.length t.Variants.Baseline.instances - 1);
      sizes = List.map Atomset.cardinal t.Variants.Baseline.instances;
    }
  in
  let of_run (r : Variants.run) =
    let d = r.Variants.derivation in
    {
      variant;
      outcome = r.Variants.outcome;
      steps = Derivation.length d - 1;
      final = (Derivation.last d).Derivation.instance;
      sizes =
        List.map
          (fun st -> Atomset.cardinal st.Derivation.instance)
          (Derivation.steps d);
    }
  in
  match variant with
  | Oblivious | Skolem ->
      if resume <> None || journal <> None then
        invalid_arg
          "Chase.run: resume/journal requires a derivation engine \
           (restricted, frugal or core)";
      of_baseline
        (match variant with
        | Oblivious -> Variants.Baseline.oblivious ?budget ?token kb
        | _ -> Variants.Baseline.skolem ?budget ?token kb)
  | Restricted ->
      of_run
        (Variants.restricted ?budget ?token ?resume ?journal kb)
  | Frugal ->
      of_run (Variants.frugal ?budget ?token ?resume ?journal kb)
  | Core ->
      of_run (Variants.core ?budget ?token ?resume ?journal kb)

(* ------------------------------------------------------------------ *)
(* Engine routing targets (DESIGN.md §13).                             *)
(* ------------------------------------------------------------------ *)

type engine_choice = Engine_datalog | Engine_restricted | Engine_core

let engine_name = function
  | Engine_datalog -> "datalog"
  | Engine_restricted -> "restricted"
  | Engine_core -> "core"

(** Run the routed engine and report uniformly.  [Engine_datalog] is
    semi-naive saturation: on a full (existential-free) program it {e is}
    the restricted chase — every trigger is satisfied exactly when its
    head atoms are present — so the report carries [variant = Restricted];
    saturation always terminates, so the budget only applies to the other
    engines, but [token] stops it between rounds: the report then carries
    the stopping outcome and the last completed round as [final].
    [Engine_core] is the full core chase. *)
let run_engine ?budget ?token choice kb =
  match choice with
  | Engine_restricted -> run ?budget ?token Restricted kb
  | Engine_core -> run ?budget ?token Core kb
  | Engine_datalog ->
      if Kb.egds kb <> [] then
        invalid_arg "Chase.run_engine: datalog engine does not handle EGDs";
      let facts = Kb.facts kb in
      let final = ref facts in
      let steps () = Atomset.cardinal !final - Atomset.cardinal facts in
      let outcome =
        match
          Resilience.with_token token (fun () ->
              Datalog.fold_rounds (Kb.rules kb) facts ~init:() (fun () i ->
                  final := i))
        with
        | () -> Resilience.Fixpoint
        | exception e -> (
            match Resilience.outcome_of_exn e with
            | Some o ->
                Resilience.record ~engine:"datalog" ~step:(steps ()) o;
                o
            | None -> raise e)
      in
      {
        variant = Restricted;
        outcome;
        steps = steps ();
        final = !final;
        sizes = [ Atomset.cardinal facts; Atomset.cardinal !final ];
      }

(** Does the instance satisfy every rule (i.e. is it a model of the
    ruleset)?  An instance is a model of a rule iff every trigger for it is
    satisfied in it. *)
let is_model_of_rules rules inst =
  Trigger.unsatisfied_triggers rules inst = []

(** Is the instance a model of the KB: receives the facts homomorphically
    and satisfies every rule. *)
let is_model kb inst =
  Homo.Hom.maps_to (Kb.facts kb) inst && is_model_of_rules (Kb.rules kb) inst
