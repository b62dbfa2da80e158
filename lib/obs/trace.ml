type event =
  | Round_start of { engine : string; round : int; size : int }
  | Trigger_found of { engine : string; found : int; size : int }
  | Trigger_applied of {
      engine : string;
      step : int;
      rule : string;
      produced : int;
      size : int;
    }
  | Retract of { engine : string; step : int; removed : int; size : int }
  | Egd_merge of { engine : string; step : int; size : int }
  | Hom_backtrack of { backtracks : int; src_atoms : int; tgt_atoms : int }
  | Core_scoped_fold of { candidates : int; folded : bool; size : int }
  | Tw_decomposed of { vertices : int; width : int; exact : bool }
  | Par_fanout of { site : string; tasks : int; jobs : int }
  | Batch_task of { site : string; index : int; slot : int; ms : int }
  | Deadline_hit of { engine : string; step : int }
  | Session_event of { action : string; session : string; generation : int }
  | Conn_event of { action : string; conn : int }
  | Wal_rotate of { segment : string; lsn : int }
  | Snapshot_written of { path : string; lsn : int; records : int }
  | Recovery_replayed of { dir : string; records : int; torn : bool }

type sink =
  | Null
  | Console of Format.formatter
  | Jsonl of out_channel
  | Custom of (event -> unit)

let current = ref Null

let emitted = ref 0

let set_sink s = current := s

let sink () = !current

(* Events are only emitted from the main domain (slot 0).  Pool workers
   run deterministic sub-searches whose interleaving is schedule-dependent;
   suppressing their emissions keeps the JSONL stream byte-reproducible
   (DESIGN.md §10).  Sink channels are also not synchronised, so this
   doubles as the thread-safety discipline.

   [Par.Batch] tasks additionally mute emission for the task body — even
   the task that happens to run on slot 0 — because which engine events
   interleave with which depends on task-to-domain placement.  The batch
   layer instead emits one deterministic [Batch_task] summary per task
   after its barrier (DESIGN.md §14). *)
let muted_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let muted () = Domain.DLS.get muted_key

let with_muted f =
  let saved = Domain.DLS.get muted_key in
  Domain.DLS.set muted_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set muted_key saved) f

let enabled () =
  (match !current with Null -> false | _ -> true)
  && Metrics.slot () = 0
  && not (muted ())

let events_emitted () = !emitted

let reset_emitted () = emitted := 0

let pp_event ppf = function
  | Round_start { engine; round; size } ->
      Format.fprintf ppf "[%s] round %d starts (%d atoms)" engine round size
  | Trigger_found { engine; found; size } ->
      Format.fprintf ppf "[%s] %d active trigger(s) on %d atoms" engine found
        size
  | Trigger_applied { engine; step; rule; produced; size } ->
      Format.fprintf ppf "[%s] step %d: %s fired, +%d atoms (%d total)" engine
        step
        (if rule = "" then "<rule>" else rule)
        produced size
  | Retract { engine; step; removed; size } ->
      Format.fprintf ppf "[%s] step %d: retracted %d atom(s) (%d left)" engine
        step removed size
  | Egd_merge { engine; step; size } ->
      Format.fprintf ppf "[%s] step %d: egd merge (%d atoms)" engine step size
  | Hom_backtrack { backtracks; src_atoms; tgt_atoms } ->
      Format.fprintf ppf "[hom] %d backtrack(s) mapping %d atoms into %d"
        backtracks src_atoms tgt_atoms
  | Core_scoped_fold { candidates; folded; size } ->
      Format.fprintf ppf "[core] scoped fold: %d candidate(s) on %d atoms (%s)"
        candidates size
        (if folded then "folded" else "certified core")
  | Tw_decomposed { vertices; width; exact } ->
      Format.fprintf ppf "[tw] decomposed %d vertices: width %d (%s)" vertices
        width
        (if exact then "exact" else "bound")
  | Par_fanout { site; tasks; jobs } ->
      Format.fprintf ppf "[par] %s: %d task(s) over %d domain(s)" site tasks
        jobs
  | Batch_task { site; index; slot; ms } ->
      Format.fprintf ppf "[par] %s: task %d done on slot %d (%d ms)" site index
        slot ms
  | Deadline_hit { engine; step } ->
      Format.fprintf ppf "[%s] step %d: deadline hit, stopping" engine step
  | Session_event { action; session; generation } ->
      Format.fprintf ppf "[serve] session %s: %s (generation %d)" session
        action generation
  | Conn_event { action; conn } ->
      Format.fprintf ppf "[serve] conn %d: %s" conn action
  | Wal_rotate { segment; lsn } ->
      Format.fprintf ppf "[wal] rotated to %s (next lsn %d)" segment lsn
  | Snapshot_written { path; lsn; records } ->
      Format.fprintf ppf "[wal] snapshot %s covers lsn %d (%d record(s))" path
        lsn records
  | Recovery_replayed { dir; records; torn } ->
      Format.fprintf ppf "[wal] recovered %s: %d record(s)%s" dir records
        (if torn then ", torn tail truncated" else "")

(* ------------------------------------------------------------------ *)
(* JSON encoding: flat objects with string / int / bool fields only.   *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ev =
  let s k v = Printf.sprintf "%S:\"%s\"" k (escape v) in
  let i k v = Printf.sprintf "%S:%d" k v in
  let b k v = Printf.sprintf "%S:%b" k v in
  let fields =
    match ev with
    | Round_start { engine; round; size } ->
        [ s "ev" "round_start"; s "engine" engine; i "round" round; i "size" size ]
    | Trigger_found { engine; found; size } ->
        [ s "ev" "trigger_found"; s "engine" engine; i "found" found; i "size" size ]
    | Trigger_applied { engine; step; rule; produced; size } ->
        [
          s "ev" "trigger_applied"; s "engine" engine; i "step" step;
          s "rule" rule; i "produced" produced; i "size" size;
        ]
    | Retract { engine; step; removed; size } ->
        [
          s "ev" "retract"; s "engine" engine; i "step" step;
          i "removed" removed; i "size" size;
        ]
    | Egd_merge { engine; step; size } ->
        [ s "ev" "egd_merge"; s "engine" engine; i "step" step; i "size" size ]
    | Hom_backtrack { backtracks; src_atoms; tgt_atoms } ->
        [
          s "ev" "hom_backtrack"; i "backtracks" backtracks;
          i "src_atoms" src_atoms; i "tgt_atoms" tgt_atoms;
        ]
    | Core_scoped_fold { candidates; folded; size } ->
        [
          s "ev" "core_scoped_fold"; i "candidates" candidates;
          b "folded" folded; i "size" size;
        ]
    | Tw_decomposed { vertices; width; exact } ->
        [
          s "ev" "tw_decomposed"; i "vertices" vertices; i "width" width;
          b "exact" exact;
        ]
    | Par_fanout { site; tasks; jobs } ->
        [ s "ev" "par_fanout"; s "site" site; i "tasks" tasks; i "jobs" jobs ]
    | Batch_task { site; index; slot; ms } ->
        [
          s "ev" "batch_task"; s "site" site; i "index" index; i "slot" slot;
          i "ms" ms;
        ]
    | Deadline_hit { engine; step } ->
        [ s "ev" "deadline_hit"; s "engine" engine; i "step" step ]
    | Session_event { action; session; generation } ->
        [
          s "ev" "session_event"; s "action" action; s "session" session;
          i "generation" generation;
        ]
    | Conn_event { action; conn } ->
        [ s "ev" "conn_event"; s "action" action; i "conn" conn ]
    | Wal_rotate { segment; lsn } ->
        [ s "ev" "wal_rotate"; s "segment" segment; i "lsn" lsn ]
    | Snapshot_written { path; lsn; records } ->
        [
          s "ev" "snapshot_written"; s "path" path; i "lsn" lsn;
          i "records" records;
        ]
    | Recovery_replayed { dir; records; torn } ->
        [
          s "ev" "recovery_replayed"; s "dir" dir; i "records" records;
          b "torn" torn;
        ]
  in
  "{" ^ String.concat "," fields ^ "}"

(* Minimal parser for the flat objects [to_json] produces. *)

type jvalue = Jstr of string | Jint of int | Jbool of bool

exception Parse_error

let parse_flat_object line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Parse_error else line.[!pos] in
  let advance () = incr pos in
  let expect c = if peek () <> c then raise Parse_error else advance () in
  let skip_ws () =
    while !pos < n && (peek () = ' ' || peek () = '\t') do advance () done
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 >= n then raise Parse_error;
              let hex = String.sub line (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex) with _ -> raise Parse_error
              in
              pos := !pos + 4;
              if code < 0x100 then Buffer.add_char buf (Char.chr code)
              else raise Parse_error
          | _ -> raise Parse_error);
          advance ();
          go ())
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Jstr (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Jbool true
        end
        else raise Parse_error
    | 'f' ->
        if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Jbool false
        end
        else raise Parse_error
    | '-' | '0' .. '9' ->
        let start = !pos in
        if peek () = '-' then advance ();
        while !pos < n && match line.[!pos] with '0' .. '9' -> true | _ -> false
        do advance () done;
        if !pos = start then raise Parse_error;
        Jint (int_of_string (String.sub line start (!pos - start)))
    | _ -> raise Parse_error
  in
  skip_ws ();
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = '}' then advance ()
  else begin
    let rec members () =
      skip_ws ();
      let k = parse_string () in
      skip_ws ();
      expect ':';
      let v = parse_value () in
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | ',' -> advance (); members ()
      | '}' -> advance ()
      | _ -> raise Parse_error
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then raise Parse_error;
  List.rev !fields

let of_json_line line =
  match parse_flat_object (String.trim line) with
  | exception Parse_error -> None
  | exception _ -> None
  | fields -> (
      let str k =
        match List.assoc_opt k fields with
        | Some (Jstr s) -> s
        | _ -> raise Parse_error
      in
      let int k =
        match List.assoc_opt k fields with
        | Some (Jint i) -> i
        | _ -> raise Parse_error
      in
      let bool k =
        match List.assoc_opt k fields with
        | Some (Jbool b) -> b
        | _ -> raise Parse_error
      in
      match
        match str "ev" with
        | "round_start" ->
            Round_start
              { engine = str "engine"; round = int "round"; size = int "size" }
        | "trigger_found" ->
            Trigger_found
              { engine = str "engine"; found = int "found"; size = int "size" }
        | "trigger_applied" ->
            Trigger_applied
              {
                engine = str "engine";
                step = int "step";
                rule = str "rule";
                produced = int "produced";
                size = int "size";
              }
        | "retract" ->
            Retract
              {
                engine = str "engine";
                step = int "step";
                removed = int "removed";
                size = int "size";
              }
        | "egd_merge" ->
            Egd_merge
              { engine = str "engine"; step = int "step"; size = int "size" }
        | "hom_backtrack" ->
            Hom_backtrack
              {
                backtracks = int "backtracks";
                src_atoms = int "src_atoms";
                tgt_atoms = int "tgt_atoms";
              }
        | "core_scoped_fold" ->
            Core_scoped_fold
              {
                candidates = int "candidates";
                folded = bool "folded";
                size = int "size";
              }
        | "tw_decomposed" ->
            Tw_decomposed
              {
                vertices = int "vertices";
                width = int "width";
                exact = bool "exact";
              }
        | "par_fanout" ->
            Par_fanout
              { site = str "site"; tasks = int "tasks"; jobs = int "jobs" }
        | "batch_task" ->
            Batch_task
              {
                site = str "site";
                index = int "index";
                slot = int "slot";
                ms = int "ms";
              }
        | "deadline_hit" ->
            Deadline_hit { engine = str "engine"; step = int "step" }
        | "session_event" ->
            Session_event
              {
                action = str "action";
                session = str "session";
                generation = int "generation";
              }
        | "conn_event" -> Conn_event { action = str "action"; conn = int "conn" }
        | "wal_rotate" ->
            Wal_rotate { segment = str "segment"; lsn = int "lsn" }
        | "snapshot_written" ->
            Snapshot_written
              { path = str "path"; lsn = int "lsn"; records = int "records" }
        | "recovery_replayed" ->
            Recovery_replayed
              { dir = str "dir"; records = int "records"; torn = bool "torn" }
        | _ -> raise Parse_error
      with
      | ev -> Some ev
      | exception Parse_error -> None)

(* ------------------------------------------------------------------ *)

let write sink ev =
  match sink with
  | Null -> ()
  | Console ppf -> Format.fprintf ppf "%a@." pp_event ev
  | Jsonl oc ->
      output_string oc (to_json ev);
      output_char oc '\n'
  | Custom f -> f ev

let emit ev =
  if Metrics.slot () = 0 && not (muted ()) then
    match !current with
    | Null -> ()
    | sink ->
        incr emitted;
        write sink ev

let with_sink s f =
  let saved = !current in
  current := s;
  Fun.protect ~finally:(fun () -> current := saved) f

let with_jsonl_file path f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      flush oc;
      close_out_noerr oc)
    (fun () -> with_sink (Jsonl oc) f)

(* CI smoke hook: run any corechase process with CORECHASE_TRACE=<file> to
   append a JSONL trace of everything it does (see .github/workflows). *)
let () =
  match Sys.getenv_opt "CORECHASE_TRACE" with
  | Some path when path <> "" -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc ->
          at_exit (fun () ->
              try
                flush oc;
                close_out_noerr oc
              with _ -> ());
          current := Jsonl oc
      | exception _ -> ())
  | _ -> ()
