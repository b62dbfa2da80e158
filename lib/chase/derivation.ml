open Syntax

type step = {
  index : int;
  trigger : Trigger.t option;
  pi_safe : Subst.t;
  pre_instance : Atomset.t;
  simplification : Subst.t;
  instance : Atomset.t;
}

type t = { kb : Kb.t; rev_steps : step list; len : int }

let start ?(simplification = Subst.empty) kb =
  let f = Kb.facts kb in
  if not (Subst.is_retraction_of f simplification) then
    invalid_arg "Derivation.start: σ_0 is not a retraction of F";
  let step0 =
    {
      index = 0;
      trigger = None;
      pi_safe = Subst.empty;
      pre_instance = f;
      simplification;
      instance = Subst.apply simplification f;
    }
  in
  { kb; rev_steps = [ step0 ]; len = 1 }

(* Rebuild a derivation from previously recorded steps (WAL
   recovery).  Structural checks only — indices consecutive from 0, each
   instance = σ(pre-instance) — since the triggers themselves are not
   serialized ([trigger = None] on reloaded steps); full Definition-1
   replay is what [validate] is for and is impossible without them. *)
let of_steps kb steps =
  (match steps with
  | [] -> invalid_arg "Derivation.of_steps: empty step list"
  | st0 :: _ ->
      if st0.index <> 0 then
        invalid_arg "Derivation.of_steps: first step must have index 0");
  List.iteri
    (fun i st ->
      if st.index <> i then
        invalid_arg
          (Printf.sprintf
             "Derivation.of_steps: step %d carries index %d (must be \
              consecutive from 0)"
             i st.index);
      if not (Atomset.equal st.instance (Subst.apply st.simplification st.pre_instance))
      then
        invalid_arg
          (Printf.sprintf "Derivation.of_steps: step %d: F ≠ σ(A)" i))
    steps;
  { kb; rev_steps = List.rev steps; len = List.length steps }

let kb d = d.kb

let length d = d.len

let step d i =
  if i < 0 || i >= d.len then invalid_arg "Derivation.step: out of range";
  List.nth d.rev_steps (d.len - 1 - i)

let steps d = List.rev d.rev_steps

let last d = List.hd d.rev_steps

let instance_at d i = (step d i).instance

let extend_applied ?(validate = true) d tr (app : Trigger.application)
    ~simplification =
  let prev = last d in
  if validate then begin
    if not (Trigger.is_trigger_for tr prev.instance) then
      invalid_arg "Derivation.extend: not a trigger for the last instance";
    if Trigger.satisfied tr prev.instance then
      invalid_arg "Derivation.extend: trigger already satisfied (Definition 1)";
    if not (Subst.is_retraction_of app.Trigger.result simplification) then
      invalid_arg "Derivation.extend: simplification is not a retraction"
  end;
  let st =
    {
      index = prev.index + 1;
      trigger = Some tr;
      pi_safe = app.Trigger.pi_safe;
      pre_instance = app.Trigger.result;
      simplification;
      instance = Subst.apply simplification app.Trigger.result;
    }
  in
  { d with rev_steps = st :: d.rev_steps; len = d.len + 1 }

let replace_last_simplification ?(validate = true) d simplification =
  match d.rev_steps with
  | [] | [ _ ] ->
      invalid_arg "Derivation.replace_last_simplification: no applied step"
  | st :: rest ->
      if validate && not (Subst.is_retraction_of st.pre_instance simplification)
      then
        invalid_arg
          "Derivation.replace_last_simplification: not a retraction";
      let st' =
        {
          st with
          simplification;
          instance = Subst.apply simplification st.pre_instance;
        }
      in
      { d with rev_steps = st' :: rest }

let extend ?validate d tr ~simplification =
  let app = Trigger.apply tr (last d).instance in
  extend_applied ?validate d tr app ~simplification

let is_monotonic d =
  let rec go = function
    | newer :: (older :: _ as rest) ->
        Atomset.subset older.instance newer.instance && go rest
    | _ -> true
  in
  go d.rev_steps

let validate d =
  let ( let* ) = Result.bind in
  let check b msg = if b then Ok () else Error msg in
  let rec go prev = function
    | [] -> Ok ()
    | st :: rest -> (
        match (st.trigger, prev) with
        | None, None ->
            (* step 0 *)
            let* () =
              check
                (Atomset.equal st.pre_instance (Kb.facts d.kb))
                "step 0: pre-instance is not the KB's facts"
            in
            let* () =
              check
                (Subst.is_retraction_of st.pre_instance st.simplification)
                "step 0: σ_0 is not a retraction of F"
            in
            let* () =
              check
                (Atomset.equal st.instance
                   (Subst.apply st.simplification st.pre_instance))
                "step 0: F_0 ≠ σ_0(F)"
            in
            go (Some st) rest
        | None, Some _ -> Error "non-initial step without a trigger"
        | Some _, None -> Error "initial step carries a trigger"
        | Some tr, Some prev_st ->
            let i = st.index in
            let* () =
              check
                (Trigger.is_trigger_for tr prev_st.instance)
                (Printf.sprintf "step %d: not a trigger for F_%d" i (i - 1))
            in
            let* () =
              check
                (not (Trigger.satisfied tr prev_st.instance))
                (Printf.sprintf "step %d: trigger already satisfied" i)
            in
            let replay = Trigger.apply_with_pi_safe tr st.pi_safe prev_st.instance in
            let* () =
              check
                (Atomset.equal st.pre_instance replay.Trigger.result)
                (Printf.sprintf "step %d: pre-instance ≠ α(F_%d, tr)" i (i - 1))
            in
            let* () =
              check
                (Subst.is_retraction_of st.pre_instance st.simplification)
                (Printf.sprintf "step %d: σ is not a retraction" i)
            in
            let* () =
              check
                (Atomset.equal st.instance
                   (Subst.apply st.simplification st.pre_instance))
                (Printf.sprintf "step %d: F ≠ σ(A)" i)
            in
            go (Some st) rest)
  in
  go None (steps d)

let sigma_trace d ~from_ ~to_ =
  if from_ > to_ then invalid_arg "Derivation.sigma_trace: from_ > to_";
  let rec go i acc =
    if i > to_ then acc
    else go (i + 1) (Subst.compose (step d i).simplification acc)
  in
  go (from_ + 1) Subst.empty

let natural_aggregation d =
  List.fold_left
    (fun acc st -> Atomset.union acc st.instance)
    Atomset.empty d.rev_steps

let fairness_debt d =
  (* index every element once up front; the check below revisits each
     F_j for every unsatisfied trigger of every F_i *)
  let all = List.map (fun st -> (st, Homo.Instance.of_atomset st.instance)) (steps d) in
  List.concat_map
    (fun (st, st_idx) ->
      let i = st.index in
      let triggers = Trigger.unsatisfied_triggers_in (Kb.rules d.kb) st_idx in
      (* a trigger satisfied in F_i itself is no debt; unsatisfied ones must
         have their trace satisfied in some later F_j *)
      List.filter_map
        (fun tr ->
          let settled =
            List.exists
              (fun (st_j, idx_j) ->
                st_j.index > i
                &&
                let trace = sigma_trace d ~from_:i ~to_:st_j.index in
                Trigger.satisfied_in (Trigger.rename trace tr) idx_j)
              all
          in
          if settled then None else Some (i, tr))
        triggers)
    all

let is_fair_prefix d = fairness_debt d = []

let pp_summary ppf d =
  List.iter
    (fun st ->
      Fmt.pf ppf "%3d %-12s |A|=%-4d |F|=%-4d %s@."
        st.index
        (match st.trigger with
        | None -> "(init)"
        | Some tr ->
            let n = Rule.name (Trigger.rule tr) in
            if n = "" then "(rule)" else n)
        (Atomset.cardinal st.pre_instance)
        (Atomset.cardinal st.instance)
        (if Subst.is_empty st.simplification then "" else "simplified"))
    (steps d)
