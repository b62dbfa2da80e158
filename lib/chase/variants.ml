open Syntax

(* Observability (DESIGN.md §8): every engine below reports through the
   same counters and emits the same typed events, labelled with an engine
   name, so the differential telemetry tests can reconcile event streams
   against [Chase.report] for each variant. *)
let m_rounds = Obs.Metrics.counter "chase.rounds"

let m_applied = Obs.Metrics.counter "chase.triggers_applied"

let m_retractions = Obs.Metrics.counter "chase.retractions"

let m_egd_merges = Obs.Metrics.counter "chase.egd_merges"

let g_size = Obs.Metrics.gauge "chase.instance_size"

let obs_round_start ~engine ~round idx =
  Obs.Metrics.incr m_rounds;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      (Obs.Trace.Round_start
         { engine; round; size = Homo.Instance.cardinal idx })

let obs_applied ~engine ~step ~rule ~produced idx =
  Obs.Metrics.incr m_applied;
  Obs.Metrics.set g_size (Homo.Instance.cardinal idx);
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      (Obs.Trace.Trigger_applied
         {
           engine;
           step;
           rule = Rule.name rule;
           produced;
           size = Homo.Instance.cardinal idx;
         })

(* a nonempty simplification retracted [before - after] atoms at [step] *)
let obs_retract ~engine ~step ~before idx =
  Obs.Metrics.incr m_retractions;
  if Obs.Trace.enabled () then
    let after = Homo.Instance.cardinal idx in
    Obs.Trace.emit
      (Obs.Trace.Retract { engine; step; removed = before - after; size = after })

type budget = { max_steps : int; max_atoms : int }

let default_budget = { max_steps = 2000; max_atoms = 20_000 }

(* The structured outcome is owned by [Resilience] (the engines, the EGD
   chase and the baselines all stop for the same reasons); the equation
   keeps [Variants.Fixpoint] etc. usable without opening that library. *)
type outcome = Resilience.outcome =
  | Fixpoint
  | Step_budget
  | Atom_budget
  | Deadline
  | Resource of Resilience.resource
  | Cancelled

type run = { derivation : Derivation.t; outcome : outcome; rounds : int }

type cadence = Every_application | Every_round

(* A resumable engine state: everything the round loop reads at its top.
   Captured only at {e completed-round boundaries} — mid-round the active
   trigger snapshot and its σ-traces are live, and serializing them would
   break the resumed ≡ uninterrupted invariant (DESIGN.md §11).  The
   instance index is not part of the state: it is rebuilt from the
   derivation's last element, and trigger discovery keys on the
   [snapshot] {e atomset} delta, not on index generations. *)
type engine_state = {
  state_derivation : Derivation.t;
  state_steps : int;  (** rule applications performed so far *)
  state_rounds : int;  (** completed rounds *)
  state_snapshot : Atomset.t option;
      (** the pre-round discovery snapshot, i.e. the atomset the next
          round's delta is computed against *)
}

(* Per-step journal events (DESIGN.md §16), the engines' only
   persistence hook.  A sink (lib/storage's WAL) receives
   one event per durable fact about the run — σ₀, each rule application
   as a delta, each round-end re-simplification, and the completed-round
   consistent cut — in exactly the order the engine commits them, so an
   append-only log of the events replays to the engine's state at any
   prefix.  Events are emitted {e after} the corresponding [d]/[idx]
   commit; a sink that raises (injected fault, disk error) is caught at
   the same engine boundary as everything else. *)
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
      (** an EGD unification ({!Egds.run} only — EGD runs are journaled
          for the record but are not Definition-1 derivations, so they
          are not resumable) *)

type journal = journal_event -> unit

(* The engines maintain ONE indexed instance per run, kept in lockstep
   with the last derivation element: rule applications patch it with
   [Instance.add_atoms] and simplifications with [Instance.apply_subst]
   — it is never rebuilt inside the loop.  Trigger discovery is
   delta-driven (semi-naive): each round only looks for triggers anchored
   in the atoms added or rewritten since the previous round's snapshot
   (see Trigger.discover; full re-enumeration is what the tests check
   each round against).  Every engine opens its rounds with
   [next_round]; the Definition-1 engines fire with [fire], the EGD
   chase with its index half [patch] (DESIGN.md §7). *)

(* One round's discovery: snapshot the instance and find the triggers
   anchored in what changed since [prev], the previous round's snapshot
   (all triggers on the first round).  Returns the new snapshot. *)
let next_round
    (discover :
      ?delta:Atomset.t -> Rule.t list -> Homo.Instance.t -> Trigger.t list)
    rules prev idx =
  let current = Homo.Instance.atomset idx in
  let delta = Option.map (fun old -> Atomset.diff current old) prev in
  (current, discover ?delta rules idx)

(* A simplification [simplify pre_idx ~added app] computes σ_i for the
   pre-instance of [app], received in indexed form plus [added] (the
   produced atoms genuinely new in the instance), so core simplifiers
   can fold delta-scoped (see Homo.Core.scope). *)
let no_simplification _ ~added:_ _ = Subst.empty

(* Delta-scoped core maintenance (DESIGN.md §9) is sound once the
   instance before the delta is a core; [invariant] records that, and
   every retraction to a core re-establishes it. *)
let core_scope invariant ~fresh ~added =
  let scope =
    if !invariant then Homo.Core.Delta { fresh; added } else Homo.Core.Full
  in
  invariant := true;
  scope

let core_simplification invariant pre_idx ~added (app : Trigger.application)
    =
  Homo.Core.retraction_to_core_indexed
    ~scope:(core_scope invariant ~fresh:app.Trigger.fresh ~added)
    pre_idx

(* Patch the index with one application: add the genuinely new atoms of
   the firing (produced may re-derive existing ones), simplify, apply σ.
   Returns [(added, pre_idx, σ, idx')]. *)
let patch ~simplify idx (app : Trigger.application) =
  let added =
    List.filter
      (fun a -> not (Homo.Instance.mem idx a))
      (Atomset.to_list app.Trigger.produced)
  in
  let pre_idx = Homo.Instance.add_atoms idx added in
  let sigma = simplify pre_idx ~added app in
  (added, pre_idx, sigma, Homo.Instance.apply_subst sigma pre_idx)

(* The firing step of the Definition-1 engines.  [tr] was discovered on
   the instance at derivation index [base]: rename it through the
   σ-trace since, and fire it only if it is still an active trigger
   (an earlier application of the round may have satisfied it).  [hit]
   runs just before the application.  Returns the successor derivation
   and index with the application, its new atoms and σ, or [None]. *)
let fire ~engine ~simplify ~hit ~base d idx tr =
  let trace =
    Derivation.sigma_trace d ~from_:base
      ~to_:(Derivation.last d).Derivation.index
  in
  let tr = Trigger.rename trace tr in
  if Trigger.is_trigger_for_in tr idx && not (Trigger.satisfied_in tr idx)
  then begin
    hit ();
    let app = Trigger.apply_in tr idx in
    let added, pre_idx, sigma, idx' = patch ~simplify idx app in
    let d' =
      Derivation.extend_applied ~validate:false d tr app ~simplification:sigma
    in
    if Obs.live () then begin
      let step = (Derivation.last d').Derivation.index in
      obs_applied ~engine ~step ~rule:(Trigger.rule tr)
        ~produced:(Atomset.cardinal app.Trigger.produced)
        idx';
      if not (Subst.is_empty sigma) then
        obs_retract ~engine ~step ~before:(Homo.Instance.cardinal pre_idx) idx'
    end;
    Some (d', idx', app, added, sigma)
  end
  else None

(* Round-based engine: [simplify] computes σ_i for each application;
   [round_end] post-processes the derivation when a round (one sweep
   over the snapshot of active triggers) completes, receiving the
   engine's index and the round's accumulated delta, and returning the
   substitution it applied to the last instance so the engine can patch
   its index. *)
let run_engine ~engine
    ?(round_end = fun d ~idx:_ ~fresh:_ ~added:_ -> (d, Subst.empty)) ?token
    ?resume ?journal ~budget ~simplify ~start_simplification kb =
  let emit_journal ev =
    match journal with Some j -> j ev | None -> ()
  in
  let d, steps_done, rounds, prev_snapshot =
    match resume with
    | Some st ->
        ( ref st.state_derivation,
          ref st.state_steps,
          ref st.state_rounds,
          ref st.state_snapshot )
    | None ->
        ( ref (Derivation.start ?simplification:start_simplification kb),
          ref 0,
          ref 0,
          ref None )
  in
  let idx =
    ref (Homo.Instance.of_atomset (Derivation.last !d).Derivation.instance)
  in
  (match (resume, start_simplification) with
  | None, Some s when (not (Subst.is_empty s)) && Obs.live () ->
      obs_retract ~engine ~step:0 ~before:(Atomset.cardinal (Kb.facts kb)) !idx
  | _ -> ());
  let outcome = ref None in
  let rules = Kb.rules kb in
  let hit () =
    Resilience.poll ();
    Resilience.Fault.hit "step"
  in
  (* The loop body commits [d]/[idx] pairwise only after both successor
     values exist, so an exception anywhere leaves the pair consistent:
     the boundary handler below then reports the last consistent instance
     instead of crashing (DESIGN.md §11). *)
  (try
     Resilience.with_token token @@ fun () ->
     (* σ₀ is durable before the first round; on resume the log already
        holds it (the sink skips the re-emission) *)
     (match resume with
     | None ->
         emit_journal
           (J_start
              {
                sigma =
                  Option.value start_simplification ~default:Subst.empty;
              })
     | Some _ -> ());
     while !outcome = None do
       Resilience.poll ();
       Resilience.Fault.hit "round";
       if Homo.Instance.cardinal !idx > budget.max_atoms then
         outcome := Some Atom_budget
       else begin
         let current, active =
           next_round Trigger.discover rules !prev_snapshot !idx
         in
         prev_snapshot := Some current;
         if active = [] then outcome := Some Fixpoint
         else begin
           incr rounds;
           if Obs.live () then obs_round_start ~engine ~round:!rounds !idx;
           let base = Derivation.length !d - 1 in
           (* the round's accumulated delta, handed to [round_end] *)
           let round_fresh = ref [] in
           let round_added = ref [] in
           List.iter
             (fun tr ->
               if !outcome = None then
                 if !steps_done >= budget.max_steps then
                   outcome := Some Step_budget
                 else
                   match fire ~engine ~simplify ~hit ~base !d !idx tr with
                   | None -> ()
                   | Some (d', idx', app, added, sigma) ->
                       d := d';
                       idx := idx';
                       round_fresh := app.Trigger.fresh :: !round_fresh;
                       round_added := added :: !round_added;
                       incr steps_done;
                       emit_journal
                         (J_step
                            {
                              index = (Derivation.last d').Derivation.index;
                              pi_safe = app.Trigger.pi_safe;
                              sigma;
                              added;
                            });
                       if Homo.Instance.cardinal idx' > budget.max_atoms then
                         outcome := Some Atom_budget)
             active;
           (* round completed: let the variant post-process (e.g. retract
              the round's last application to a core) *)
           if Derivation.length !d - 1 > base then begin
             let d', extra =
               round_end !d ~idx:!idx
                 ~fresh:(List.concat (List.rev !round_fresh))
                 ~added:(List.concat (List.rev !round_added))
             in
             let before = Homo.Instance.cardinal !idx in
             let idx' = Homo.Instance.apply_subst extra !idx in
             d := d';
             idx := idx';
             if not (Subst.is_empty extra) then begin
               let index = (Derivation.last d').Derivation.index in
               emit_journal (J_round_sigma { index; sigma = extra });
               if Obs.live () then obs_retract ~engine ~step:index ~before idx'
             end
           end;
           (* A completed round is the only consistent cut this loop
              offers: every σ-trace is sealed inside [d], so the state
              below resumes exactly (DESIGN.md §11).  Partial rounds
              (budget fired above) are never journaled as boundaries. *)
           if !outcome = None then
             emit_journal
               (J_round
                  {
                    state =
                      {
                        state_derivation = !d;
                        state_steps = !steps_done;
                        state_rounds = !rounds;
                        state_snapshot = !prev_snapshot;
                      };
                    snapshot_index = base;
                  })
         end
       end
     done
   with e -> (
     match Resilience.outcome_of_exn e with
     | Some o ->
         outcome := Some o;
         Resilience.record ~engine ~step:(Derivation.length !d - 1) o
     | None -> raise e));
  {
    derivation = !d;
    outcome = (match !outcome with Some o -> o | None -> assert false);
    rounds = !rounds;
  }

let restricted ?(budget = default_budget) ?token ?resume ?journal kb =
  run_engine ~engine:"restricted" ~budget ?token ?resume ?journal
    ~simplify:no_simplification ~start_simplification:None kb

let core ?(budget = default_budget) ?(cadence = Every_application)
    ?(simplify_start = true) ?token ?resume ?journal kb =
  match
    (* σ_0 = retraction-to-core of the facts runs before the engine loop,
       so it needs the same token/boundary discipline: computed under the
       token, interruption classified here rather than escaping *)
    Resilience.with_token token @@ fun () ->
    (* on resume the start step is already inside the derivation *)
    if simplify_start && resume = None then
      Some (Homo.Core.retraction_to_core (Kb.facts kb))
    else None
  with
  | exception e -> (
      match Resilience.outcome_of_exn e with
      | Some o ->
          Resilience.record ~engine:"core" ~step:0 o;
          { derivation = Derivation.start kb; outcome = o; rounds = 0 }
      | None -> raise e)
  | start_simplification ->(
  (* Incremental-core invariant (DESIGN.md §9): once a retraction to a
     core has run, every later pre-instance is "last core + one delta",
     so the fold search may be delta-scoped.  Before the first retraction
     (simplify_start = false) the precondition does not hold and the
     first simplification folds with Full scope.  A resumed state was
     journaled at a round boundary, where both cadences leave the
     instance a core. *)
  let invariant = ref (simplify_start || resume <> None) in
  match cadence with
  | Every_application ->
      run_engine ~engine:"core" ~budget ?token ?resume ?journal
        ~simplify:(core_simplification invariant)
        ~start_simplification kb
  | Every_round ->
      (* Restricted steps within a round; the round's last application is
         re-simplified by a retraction-to-core once the round has ended
         (Deutsch–Nash–Remmel's parallel core chase, viewed as a
         Definition-1 derivation).  Within the round σ_i is the identity,
         so the closing retraction is exactly the substitution the
         engine's index needs to absorb — and the engine's index {e is}
         the round-end pre-instance, so it is folded in place with the
         round's whole delta as scope. *)
      run_engine ~engine:"core-round" ~budget ?token ?resume ?journal
        ~simplify:no_simplification
        ~round_end:(fun d ~idx ~fresh ~added ->
          let r =
            Homo.Core.retraction_to_core_indexed
              ~scope:(core_scope invariant ~fresh ~added)
              idx
          in
          (Derivation.replace_last_simplification ~validate:false d r, r))
        ~start_simplification kb)

(* Frugal simplification: fold the freshly created nulls of [app] back
   into the rest of the pre-instance when an endomorphism fixing every
   older term allows it.  The search seeds the homomorphism with the
   identity on all non-fresh terms, so only the fresh nulls may move.
   The engine's pre-application index is reused: each candidate target
   (the instance without one null's atoms) is derived by incremental
   removal, and folds patch the index instead of rebuilding it. *)
let frugal_simplification pre_idx ~added:_ (app : Trigger.application) =
  match app.Trigger.fresh with
  | [] -> Subst.empty
  | fresh ->
      let pre = app.Trigger.result in
      let module TS = Set.Make (Term) in
      let fresh_set = TS.of_list fresh in
      let older =
        List.filter (fun t -> not (TS.mem t fresh_set)) (Atomset.terms pre)
      in
      let identity_seed =
        List.fold_left
          (fun s t -> if Term.is_var t then Subst.add t t s else s)
          Subst.empty older
      in
      let rec fold_nulls sigma current_idx remaining =
        match remaining with
        | [] -> sigma
        | z :: rest ->
            let z' = Subst.apply_term sigma z in
            if not (Term.is_var z') || not (TS.mem z' fresh_set) then
              fold_nulls sigma current_idx rest
            else
              let current = Homo.Instance.atomset current_idx in
              let target =
                Homo.Instance.remove_atoms current_idx
                  (Homo.Instance.atoms_with_term current_idx z')
              in
              let seed =
                (* identity on everything but the fresh nulls still alive *)
                List.fold_left
                  (fun s t ->
                    if Term.is_var t && not (TS.mem t fresh_set) then
                      Subst.add t t s
                    else s)
                  identity_seed (Atomset.terms current)
              in
              (match Homo.Hom.find ~seed current target with
              | Some h ->
                  let h = Subst.restrict (Atomset.vars current) h in
                  fold_nulls (Subst.compose h sigma)
                    (Homo.Instance.apply_subst h current_idx)
                    rest
              | None -> fold_nulls sigma current_idx rest)
      in
      let sigma = fold_nulls Subst.empty pre_idx fresh in
      (* the composite folds only fresh nulls and fixes its image: a
         retraction of the pre-instance *)
      sigma

let frugal ?(budget = default_budget) ?token ?resume ?journal kb =
  run_engine ~engine:"frugal" ~budget ?token ?resume ?journal
    ~simplify:frugal_simplification ~start_simplification:None kb

let stream ~variant kb =
  let engine = "stream" and rules = Kb.rules kb in
  let simplify =
    match variant with
    | `Restricted -> no_simplification
    (* the stream's start instance is always simplified to a core (see
       [d0] below), so the delta precondition holds from the start *)
    | `Core -> core_simplification (ref true)
    | `Frugal -> frugal_simplification
  in
  (* state: current derivation + its incrementally maintained index + the
     atomset at the last trigger discovery + the round number + the
     derivation index the round's triggers were discovered at + the
     triggers left over from the round's snapshot *)
  let rec next (d, idx, prev, round, base, queue) () =
    Resilience.poll ();
    match queue with
    | tr :: rest -> (
        match fire ~engine ~simplify ~hit:ignore ~base d idx tr with
        | Some (d', idx', _, _, _) ->
            Seq.Cons (d', next (d', idx', prev, round, base, rest))
        | None -> next (d, idx, prev, round, base, rest) ())
    | [] -> (
        match next_round Trigger.discover rules prev idx with
        | _, [] -> Seq.Nil
        | current, active ->
            let round = round + 1 in
            if Obs.live () then obs_round_start ~engine ~round idx;
            next
              (d, idx, Some current, round, Derivation.length d - 1, active)
              ())
  in
  let d0 =
    Derivation.start
      ?simplification:
        (match variant with
        | `Core -> Some (Homo.Core.retraction_to_core (Kb.facts kb))
        | _ -> None)
      kb
  in
  let idx0 =
    Homo.Instance.of_atomset (Derivation.last d0).Derivation.instance
  in
  fun () -> Seq.Cons (d0, next (d0, idx0, None, 0, 0, []))

module Egds = struct
  type outcome =
    | Terminated
    | Stopped of Resilience.outcome
    | Failed of Egd.t

  type run = { trace : Atomset.t list; outcome : outcome; steps : int }

  let violations_in egds indexed =
    List.concat_map
      (fun egd0 ->
        let egd = Egd.rename_apart egd0 in
        let l, r = Egd.sides egd in
        List.filter_map
          (fun pi ->
            let u = Subst.apply_term pi l and v = Subst.apply_term pi r in
            if Term.equal u v then None else Some (egd0, u, v))
          (Homo.Hom.all (Egd.body egd) indexed))
      egds

  let violations egds inst = violations_in egds (Homo.Instance.of_atomset inst)

  (* the unifier for one violation: constants are preferred as
     representatives; between variables, the <_X-smaller one survives *)
  let unifier u v =
    match (Term.is_const u, Term.is_const v) with
    | true, true -> None (* hard failure *)
    | true, false -> Some (Subst.singleton v u)
    | false, true -> Some (Subst.singleton u v)
    | false, false ->
        if Term.compare_by_rank u v <= 0 then Some (Subst.singleton v u)
        else Some (Subst.singleton u v)

  let run ?(budget = default_budget) ?(variant = `Restricted) ?token ?journal
      kb =
    let egds = Kb.egds kb in
    let trace = ref [] in
    let steps = ref 0 in
    (* [idx] is committed after every merge / application, so however the
       run stops, [!idx] is the last consistent instance (DESIGN.md §11) *)
    let idx = ref (Homo.Instance.of_atomset (Kb.facts kb)) in
    let record () = trace := Homo.Instance.atomset !idx :: !trace in
    (* on an abort, expose the mid-phase instance — unless it equals the
       last recorded phase (abort before any progress) *)
    let record_if_new () =
      let cur = Homo.Instance.atomset !idx in
      match !trace with
      | last :: _ when Atomset.equal last cur -> ()
      | _ -> trace := cur :: !trace
    in
    let exception Fail of Egd.t in
    let exception Stop_run of Resilience.outcome in
    (* Incremental-core invariant for the [`Core] variant: EGD merges can
       create foldable redundancy, so every unification clears it. *)
    let core_inv = ref false in
    let simplify =
      match variant with
      | `Restricted -> no_simplification
      | `Core -> core_simplification core_inv
    in
    (* saturate the EGDs in place; each unification rewrites only the
       buckets of the merged term *)
    let rec egd_saturate () =
      match violations_in egds !idx with
      | [] -> ()
      | (egd, u, v) :: _ -> (
          Resilience.poll ();
          Resilience.Fault.hit "egd";
          if !steps >= budget.max_steps then raise (Stop_run Step_budget);
          incr steps;
          match unifier u v with
          | None -> raise (Fail egd)
          | Some s ->
              core_inv := false;
              let idx' = Homo.Instance.apply_subst s !idx in
              idx := idx';
              (match journal with
              | Some j -> j (J_merge { sigma = s })
              | None -> ());
              if Obs.live () then begin
                Obs.Metrics.incr m_egd_merges;
                if Obs.Trace.enabled () then
                  Obs.Trace.emit
                    (Obs.Trace.Egd_merge
                       {
                         engine = "egd";
                         step = !steps;
                         size = Homo.Instance.cardinal idx';
                       })
              end;
              egd_saturate ())
    in
    (* one TGD round on the instance (restricted-style; core retracts).
       Triggers are applied as discovered, not renamed through a σ-trace:
       the EGD chase is not a Definition-1 derivation. *)
    let prev_snapshot = ref None in
    let rounds = ref 0 in
    let tgd_round () =
      Resilience.poll ();
      let current, active =
        next_round Trigger.discover (Kb.rules kb) !prev_snapshot !idx
      in
      prev_snapshot := Some current;
      if active = [] then false
      else begin
        incr rounds;
        if Obs.live () then obs_round_start ~engine:"egd" ~round:!rounds !idx;
        List.iter
          (fun tr ->
            if !steps >= budget.max_steps then raise (Stop_run Step_budget);
            if
              Trigger.is_trigger_for_in tr !idx
              && not (Trigger.satisfied_in tr !idx)
            then begin
              Resilience.poll ();
              Resilience.Fault.hit "step";
              incr steps;
              let app = Trigger.apply_in tr !idx in
              if Atomset.cardinal app.Trigger.result > budget.max_atoms then
                raise (Stop_run Atom_budget);
              let _, pre_idx, _, idx' = patch ~simplify !idx app in
              idx := idx';
              if Obs.live () then begin
                obs_applied ~engine:"egd" ~step:!steps ~rule:(Trigger.rule tr)
                  ~produced:(Atomset.cardinal app.Trigger.produced)
                  idx';
                if Homo.Instance.cardinal idx' < Homo.Instance.cardinal pre_idx
                then
                  obs_retract ~engine:"egd" ~step:!steps
                    ~before:(Homo.Instance.cardinal pre_idx)
                    idx'
              end
            end)
          active;
        true
      end
    in
    let outcome = ref Terminated in
    (try
       Resilience.with_token token @@ fun () ->
       egd_saturate ();
       record ();
       let continue = ref true in
       while !continue do
         if tgd_round () then begin
           egd_saturate ();
           record ()
         end
         else continue := false
       done
     with
    | Fail egd -> outcome := Failed egd
    | e -> (
        match
          match e with
          | Stop_run o -> Some o
          | e -> Resilience.outcome_of_exn e
        with
        | Some o ->
            Resilience.record ~engine:"egd" ~step:!steps o;
            record_if_new ();
            outcome := Stopped o
        | None -> raise e));
    { trace = List.rev !trace; outcome = !outcome; steps = !steps }
end

module Baseline = struct
  type trace = {
    instances : Atomset.t list;
    outcome : Resilience.outcome;
    steps : int;
  }

  (* Key identifying a trigger for the oblivious chase: rule name + images
     of all universal variables; for skolem: rule name + frontier images. *)
  let trigger_key vars tr =
    let pi = Trigger.mapping tr in
    ( Rule.name (Trigger.rule tr),
      List.map
        (fun v -> Fmt.str "%a" Term.pp_debug (Subst.apply_term pi v))
        (vars (Trigger.rule tr)) )

  let run_keyed ~engine ~key ?(budget = default_budget) ?token kb =
    let seen = Hashtbl.create 64 in
    let instances = ref [ Kb.facts kb ] in
    let idx = ref (Homo.Instance.of_atomset (Kb.facts kb)) in
    let prev_snapshot = ref None in
    let steps = ref 0 in
    let rounds = ref 0 in
    let outcome = ref None in
    (try
       Resilience.with_token token @@ fun () ->
       while !outcome = None do
         Resilience.poll ();
         Resilience.Fault.hit "round";
         let current, candidates =
           next_round Trigger.discover_all (Kb.rules kb) !prev_snapshot !idx
         in
         prev_snapshot := Some current;
         let fresh_triggers =
           List.filter (fun tr -> not (Hashtbl.mem seen (key tr))) candidates
         in
         if fresh_triggers = [] then outcome := Some Resilience.Fixpoint
         else begin
           incr rounds;
           if Obs.live () then obs_round_start ~engine ~round:!rounds !idx;
           List.iter
             (fun tr ->
               if !outcome = None then
                 if !steps >= budget.max_steps then
                   outcome := Some Resilience.Step_budget
                 else if Homo.Instance.cardinal !idx > budget.max_atoms then
                   outcome := Some Resilience.Atom_budget
                 else if not (Hashtbl.mem seen (key tr)) then begin
                   Resilience.poll ();
                   Resilience.Fault.hit "step";
                   Hashtbl.replace seen (key tr) ();
                   let app = Trigger.apply_in tr !idx in
                   let idx' =
                     Homo.Instance.add_atoms !idx
                       (Atomset.to_list app.Trigger.produced)
                   in
                   idx := idx';
                   instances := Homo.Instance.atomset !idx :: !instances;
                   incr steps;
                   if Obs.live () then
                     obs_applied ~engine ~step:!steps ~rule:(Trigger.rule tr)
                       ~produced:(Atomset.cardinal app.Trigger.produced)
                       !idx
                 end)
             fresh_triggers
         end
       done
     with e -> (
       match Resilience.outcome_of_exn e with
       | Some o ->
           outcome := Some o;
           Resilience.record ~engine ~step:!steps o
       | None -> raise e));
    {
      instances = List.rev !instances;
      outcome = (match !outcome with Some o -> o | None -> assert false);
      steps = !steps;
    }

  let oblivious ?budget ?token kb =
    run_keyed ~engine:"oblivious" ~key:(trigger_key Rule.universal_vars)
      ?budget ?token kb

  let skolem ?budget ?token kb =
    run_keyed ~engine:"skolem" ~key:(trigger_key Rule.frontier) ?budget ?token
      kb
end
