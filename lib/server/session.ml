(* Named KB sessions (DESIGN.md §15).  Transport-free: one parsed
   request in, response frames out.  The daemon and the in-process
   loopback client both drive [exec], so everything the protocol tests
   prove here holds for the socket path minus byte shuffling. *)

open Syntax
module Trace = Obs.Trace
module Metrics = Obs.Metrics

type kb_info = {
  kb : Kb.t;
  doc : Dlgp.document;
  origin : string;  (* "path" or "(inline)" — for STATS *)
  load_op : string;  (* canonical LOAD request text, for WAL snapshots *)
  mutable analysis : Analyze.report option;  (* cached per loaded KB *)
}

type snapshot = {
  variant : Chase.variant;
  budget : Chase.Variants.budget;
  chase_steps : int;
  view : Queryeval.snapshot;  (** outcome and indexed final instance *)
}

type session = {
  name : string;
  mutable kb : kb_info option;
  mutable snapshot : snapshot option;
  mutable generation : int;  (* 0 until the first CHASE completes *)
  mutable requests : int;
  mutable entails : int;
}

type t = {
  table : (string, session) Hashtbl.t;
  mutable order : string list;  (* reverse opening order *)
  wal : Storage.Wal.t option;
  mutable logging : bool;  (* off while {!restore} replays the log *)
}

let create ?wal () =
  { table = Hashtbl.create 7; order = []; wal; logging = true }

let count t = Hashtbl.length t.table

let names t = List.rev t.order

(* process-wide serving counters; the per-session numbers live on the
   session record and surface through STATS *)
let m_requests = lazy (Metrics.counter "serve.requests")
let m_entails = lazy (Metrics.counter "serve.entails")
let m_chases = lazy (Metrics.counter "serve.chases")

let session_ev action s =
  if Trace.enabled () then
    Trace.emit
      (Trace.Session_event
         { action; session = s.name; generation = s.generation })

let ok payload = { Protocol.kind = Protocol.K_ok; payload }

let err = Protocol.err_frame

let data payload = { Protocol.kind = Protocol.K_data; payload }

let find t name =
  match Hashtbl.find_opt t.table name with
  | Some s -> Ok s
  | None -> Error (err Protocol.Unknown_session (Fmt.str "no session %S" name))

let ( let* ) r f = match r with Ok v -> f v | Error e -> e

(* --- durability (DESIGN.md §16) ------------------------------------ *)

(* State-changing requests journal themselves to the registry's WAL:
   OPEN/LOAD/CLOSE as their canonical request text (replayed through the
   ordinary [exec] path on restart), a completed CHASE as the full
   stamped snapshot (the chase is {e not} re-executed on restart — its
   outcome may depend on wall-clock deadlines).  A WAL snapshot compacts
   the registry to one op sequence per open session, with a [Sess_gen]
   record pinning the generation the single serialized chase cannot
   reproduce by counting. *)

let snapshot_records t =
  List.concat_map
    (fun n ->
      let s = Hashtbl.find t.table n in
      (Storage.Record.Sess_op (Protocol.print_request (Protocol.Open s.name))
      :: (match s.kb with
         | Some info -> [ Storage.Record.Sess_op info.load_op ]
         | None -> []))
      @ (match s.snapshot with
        | Some snap ->
            [
              Storage.Record.Sess_chase
                {
                  session = s.name;
                  variant = Chase.variant_name snap.variant;
                  max_steps = snap.budget.Chase.Variants.max_steps;
                  max_atoms = snap.budget.Chase.Variants.max_atoms;
                  outcome = Resilience.outcome_name snap.view.outcome;
                  chase_steps = snap.chase_steps;
                  final = Atomset.to_list snap.view.final;
                };
            ]
        | None -> [])
      @ [ Storage.Record.Sess_gen { session = s.name; generation = s.generation } ])
    (names t)

let wal_record t r =
  match t.wal with
  | Some w when t.logging ->
      Storage.Wal.append w r;
      Storage.Wal.maybe_snapshot w (fun () -> snapshot_records t)
  | _ -> ()

let wal_op t text = wal_record t (Storage.Record.Sess_op text)

(* --- LOAD ---------------------------------------------------------- *)

let load_doc source =
  match source with
  | Protocol.From_path path -> (
      match Dlgp.parse_file path with
      | Ok doc -> Ok (doc, path)
      | Error e ->
          Error
            (err Protocol.Bad_request (Fmt.str "%s: %a" path Dlgp.pp_error e))
      | exception Sys_error m -> Error (err Protocol.Io_error m))
  | Protocol.From_text text -> (
      match Dlgp.parse_string text with
      | Ok doc -> Ok (doc, "(inline)")
      | Error e ->
          Error (err Protocol.Bad_request (Fmt.str "inline: %a" Dlgp.pp_error e))
      )

let kb_summary (doc : Dlgp.document) =
  let opt n what =
    if n = 0 then "" else Fmt.str ", %d %s" n what
  in
  Fmt.str "%d facts, %d rules%s%s%s"
    (Atomset.cardinal doc.Dlgp.facts)
    (List.length doc.Dlgp.rules)
    (opt (List.length doc.Dlgp.egds) "egds")
    (opt (List.length doc.Dlgp.queries) "queries")
    (opt (List.length doc.Dlgp.constraints) "constraints")

let exec_load t ~session ~source =
  let* s = find t session in
  let* doc, origin = load_doc source in
  let kb = Dlgp.kb_of_document doc in
  let load_op =
    Protocol.print_request (Protocol.Load { session; source })
  in
  s.kb <- Some { kb; doc; origin; load_op; analysis = None };
  (* the snapshot described the previous KB; a new CHASE must stamp a
     fresh generation before ENTAIL answers again *)
  s.snapshot <- None;
  session_ev "loaded" s;
  wal_op t load_op;
  ok (Fmt.str "loaded %s: %s" s.name (kb_summary doc))

(* --- CHASE --------------------------------------------------------- *)

(* Tee the engine's trace stream: every event still reaches whatever
   sink the server runs under (e.g. the --trace JSONL file), and round
   starts additionally stream to the client as [event] frames, so a
   long chase is observably alive. *)
let exec_chase t ~emit ~session ~variant ~steps ~atoms =
  let* s = find t session in
  let* info =
    match s.kb with
    | Some info -> Ok info
    | None ->
        Error
          (err Protocol.No_kb
             (Fmt.str "session %s has no KB (run LOAD first)" s.name))
  in
  let budget = { Chase.Variants.max_steps = steps; max_atoms = atoms } in
  let prev = Trace.sink () in
  let tee ev =
    (match ev with
    | Trace.Round_start { round; size; _ } ->
        emit
          {
            Protocol.kind = Protocol.K_event;
            payload = Fmt.str "round %d: %d atoms" round size;
          }
    | _ -> ());
    Trace.write prev ev
  in
  let run () =
    Trace.with_sink (Trace.Custom tee) (fun () ->
        Chase.run ~budget ?token:(Resilience.ambient ()) variant info.kb)
  in
  Lazy.force m_chases |> Metrics.incr;
  match run () with
  | report ->
      s.generation <- s.generation + 1;
      s.snapshot <-
        Some
          {
            variant;
            budget;
            chase_steps = report.Chase.steps;
            view =
              {
                Queryeval.outcome = report.Chase.outcome;
                final = report.Chase.final;
                indexed = Homo.Instance.of_atomset report.Chase.final;
              };
          };
      session_ev "chased" s;
      wal_record t
        (Storage.Record.Sess_chase
           {
             session = s.name;
             variant = Chase.variant_name variant;
             max_steps = budget.Chase.Variants.max_steps;
             max_atoms = budget.Chase.Variants.max_atoms;
             outcome = Resilience.outcome_name report.Chase.outcome;
             chase_steps = report.Chase.steps;
             final = Atomset.to_list report.Chase.final;
           });
      let size = Atomset.cardinal report.Chase.final in
      (match report.Chase.outcome with
      | Resilience.Fixpoint | Resilience.Step_budget | Resilience.Atom_budget
        ->
          ok
            (Fmt.str "chased %s generation %d: %s, %d steps, %d atoms" s.name
               s.generation
               (Resilience.outcome_name report.Chase.outcome)
               report.Chase.steps size)
      | o ->
          (* a deadline, cancellation or caught resource fault stopped
             the writer: structured error, but the run still produced a
             consistent instance — stamp it and keep serving *)
          err Protocol.Chase_stopped
            (Fmt.str
               "chase stopped (%s); session %s keeps generation %d (%d atoms)"
               (Resilience.outcome_name o) s.name s.generation size))
  | exception e -> (
      (* an interruption the engine did not fold into its report (e.g. a
         fault injected outside any engine poll point): the session
         survives with whatever snapshot it had *)
      match Resilience.outcome_of_exn e with
      | Some o ->
          err Protocol.Chase_stopped
            (Fmt.str "chase stopped (%s); session %s keeps generation %d"
               (Resilience.outcome_name o) s.name s.generation)
      | None -> raise e)

(* --- ENTAIL -------------------------------------------------------- *)

let eval_entail (info : kb_info) snap query =
  match Dlgp.parse_string query with
  | Error e ->
      [ err Protocol.Bad_request (Fmt.str "query: %a" Dlgp.pp_error e) ]
  | Ok qdoc ->
      if qdoc.Dlgp.queries = [] && qdoc.Dlgp.constraints = [] then
        [ err Protocol.Bad_request "no query in ENTAIL body" ]
      else begin
        let lines, sev =
          Queryeval.document_lines ~budget:snap.budget info.kb
            (Lazy.from_val snap.view) qdoc
        in
        List.map data lines @ [ ok (Queryeval.severity_name sev) ]
      end

let entail_task t ~session ~query =
  match find t session with
  | Error e -> fun () -> [ e ]
  | Ok s -> (
      s.requests <- s.requests + 1;
      s.entails <- s.entails + 1;
      Lazy.force m_entails |> Metrics.incr;
      match (s.kb, s.snapshot) with
      | None, _ ->
          fun () ->
            [
              err Protocol.No_kb
                (Fmt.str "session %s has no KB (run LOAD first)" s.name);
            ]
      | _, None ->
          fun () ->
            [
              err Protocol.No_kb
                (Fmt.str
                   "session %s has no chased snapshot (run CHASE first)"
                   s.name);
            ]
      | Some info, Some snap -> fun () -> eval_entail info snap query)

(* --- ANALYZE / STATS / admin --------------------------------------- *)

let exec_analyze t ~emit ~session =
  let* s = find t session in
  let* info =
    match s.kb with
    | Some info -> Ok info
    | None ->
        Error
          (err Protocol.No_kb
             (Fmt.str "session %s has no KB (run LOAD first)" s.name))
  in
  let report =
    match info.analysis with
    | Some r -> r
    | None -> Analyze.analyze info.kb
  in
  (* Printing forces every probe, so the route line below names the
     exact verdict.  The report is cached only once forced, since a
     [Lazy.t] keeps any exception its computation raised. *)
  let trail = Fmt.str "%a" Analyze.pp_report report in
  info.analysis <- Some report;
  let choice, reason = Analyze.route_of_report info.kb report in
  emit
    (data
       (Fmt.str "%s@.route: %s (%s)" trail (Chase.engine_name choice) reason));
  session_ev "analyzed" s;
  ok (Analyze.verdict_name (Analyze.verdict report))

let exec_stats t ~emit ~session =
  let* s = find t session in
  let kb_line =
    match s.kb with
    | None -> "(none)"
    | Some info -> Fmt.str "%s (%s)" (kb_summary info.doc) info.origin
  in
  let snap_line =
    match s.snapshot with
    | None -> "(none)"
    | Some snap ->
        Fmt.str "%s, %d atoms, %d steps (%s)"
          (Resilience.outcome_name snap.view.outcome)
          (Atomset.cardinal snap.view.final)
          snap.chase_steps
          (Chase.variant_name snap.variant)
  in
  emit
    (data
       (Fmt.str
          "session:    %s@.generation: %d@.kb:         %s@.snapshot:   \
           %s@.requests:   %d@.entails:    %d"
          s.name s.generation kb_line snap_line s.requests s.entails));
  ok "stats"

let exec_sessions t ~emit =
  let ns = names t in
  if ns <> [] then
    emit
      (data
         (String.concat "\n"
            (List.map
               (fun n ->
                 let s = Hashtbl.find t.table n in
                 Fmt.str "%s generation=%d requests=%d" s.name s.generation
                   s.requests)
               ns)));
  ok (Fmt.str "%d session(s)" (List.length ns))

let exec_metrics ~emit =
  if !Metrics.enabled then emit (data (Fmt.str "%a" Metrics.pp_table ()))
  else emit (data "(metrics disabled; start the server with --metrics)");
  ok "metrics"

(* --- dispatch ------------------------------------------------------ *)

let bump t name =
  Lazy.force m_requests |> Metrics.incr;
  match Hashtbl.find_opt t.table name with
  | Some s -> s.requests <- s.requests + 1
  | None -> ()

let exec t ~emit req =
  match req with
  | Protocol.Open name ->
      Lazy.force m_requests |> Metrics.incr;
      if Hashtbl.mem t.table name then
        err Protocol.Session_exists (Fmt.str "session %S already open" name)
      else begin
        let s =
          {
            name;
            kb = None;
            snapshot = None;
            generation = 0;
            requests = 1;
            entails = 0;
          }
        in
        Hashtbl.replace t.table name s;
        t.order <- name :: t.order;
        session_ev "opened" s;
        wal_op t (Protocol.print_request req);
        ok (Fmt.str "opened %s" name)
      end
  | Protocol.Load { session; source } ->
      bump t session;
      exec_load t ~session ~source
  | Protocol.Chase { session; variant; steps; atoms } ->
      bump t session;
      exec_chase t ~emit ~session ~variant ~steps ~atoms
  | Protocol.Entail { session; query } ->
      (* counters bumped by [entail_task] itself *)
      Lazy.force m_requests |> Metrics.incr;
      let frames = entail_task t ~session ~query () in
      let rec go = function
        | [ last ] -> last
        | f :: rest ->
            emit f;
            go rest
        | [] -> assert false
      in
      go frames
  | Protocol.Analyze session ->
      bump t session;
      exec_analyze t ~emit ~session
  | Protocol.Stats session ->
      bump t session;
      exec_stats t ~emit ~session
  | Protocol.Close session ->
      bump t session;
      let* s = find t session in
      Hashtbl.remove t.table session;
      t.order <- List.filter (fun n -> n <> session) t.order;
      session_ev "closed" s;
      wal_op t (Protocol.print_request req);
      ok (Fmt.str "closed %s" session)
  | Protocol.Ping ->
      Lazy.force m_requests |> Metrics.incr;
      ok "pong"
  | Protocol.Metrics ->
      Lazy.force m_requests |> Metrics.incr;
      exec_metrics ~emit
  | Protocol.Sessions ->
      Lazy.force m_requests |> Metrics.incr;
      exec_sessions t ~emit
  | Protocol.Shutdown ->
      Lazy.force m_requests |> Metrics.incr;
      ok "shutting down"

(* --- restore ------------------------------------------------------- *)

let restore t records =
  (* Replay with journaling off (re-appending would duplicate the log)
     and tracing muted (the events were already emitted by the original
     run; a restart is not a second opening). *)
  t.logging <- false;
  Fun.protect
    ~finally:(fun () -> t.logging <- true)
    (fun () ->
      Trace.with_muted (fun () ->
          let replay i r =
            match r with
            | Storage.Record.Sess_op text -> (
                match Protocol.parse_request text with
                | Error m ->
                    Error (Fmt.str "record %d: bad session op %S: %s" i text m)
                | Ok req -> (
                    match exec t ~emit:(fun _ -> ()) req with
                    | { Protocol.kind = Protocol.K_err; payload } ->
                        Error
                          (Fmt.str "record %d: replaying %S failed: %s" i text
                             payload)
                    | _ -> Ok ()))
            | Storage.Record.Sess_chase
                {
                  session;
                  variant;
                  max_steps;
                  max_atoms;
                  outcome;
                  chase_steps;
                  final;
                } -> (
                match
                  ( Hashtbl.find_opt t.table session,
                    Protocol.variant_of_name variant,
                    Resilience.outcome_of_name outcome )
                with
                | None, _, _ ->
                    Error
                      (Fmt.str "record %d: chase for unopened session %S" i
                         session)
                | _, None, _ ->
                    Error
                      (Fmt.str "record %d: unknown chase variant %S" i variant)
                | _, _, None ->
                    Error
                      (Fmt.str "record %d: unknown chase outcome %S" i outcome)
                | Some s, Some variant, Some outcome ->
                    let fin = Atomset.of_list final in
                    s.generation <- s.generation + 1;
                    s.snapshot <-
                      Some
                        {
                          variant;
                          budget = { Chase.Variants.max_steps; max_atoms };
                          chase_steps;
                          view =
                            {
                              Queryeval.outcome;
                              final = fin;
                              indexed = Homo.Instance.of_atomset fin;
                            };
                        };
                    Ok ())
            | Storage.Record.Sess_gen { session; generation } -> (
                match Hashtbl.find_opt t.table session with
                | None ->
                    Error
                      (Fmt.str "record %d: generation for unopened session %S"
                         i session)
                | Some s ->
                    s.generation <- generation;
                    Ok ())
            | r ->
                Error
                  (Fmt.str "record %d: %s record in a session log" i
                     (Storage.Record.kind_name r))
          in
          let rec go i = function
            | [] -> Ok ()
            | r :: rest -> (
                match replay i r with Ok () -> go (i + 1) rest | e -> e)
          in
          go 0 records))
