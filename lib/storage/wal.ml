open Syntax

(* The write-ahead log manager (DESIGN.md §16): a directory of xlog
   segments plus snapshot files, after tarantool's discipline.

     <dir>/wal-%016d.xlog   segments, named by their first LSN
     <dir>/snap-%016d.snap  snapshots, named by the LSN they cover

   One writer per directory appends length-prefixed CRC-checked frames
   (lib/storage/xlog.ml) carrying typed records (lib/storage/record.ml),
   LSNs monotonic from 1.  A snapshot is written tmp+rename, then the
   log rotates to a fresh segment, so recovery reads: latest valid
   snapshot, then every segment frame with a higher LSN.  A torn final
   frame in the {e last} segment is truncated with a warning; a torn
   tail anywhere else, a checksum failure mid-file, or an LSN gap is a
   structured error — the log refuses to lie about what is durable.

   Fault sites for the kill/resume differential harness (DESIGN.md §11):
   [wal] fires between a frame's write and its fsync (the mid-fsync
   kill: the record may or may not survive), [snap] fires between a
   snapshot's temp-file write and its rename (the snapshot is lost, the
   log must still recover from the previous one). *)

let m_appends = Obs.Metrics.counter "wal.appends"

let m_fsyncs = Obs.Metrics.counter "wal.fsyncs"

let m_replayed = Obs.Metrics.counter "wal.replayed_records"

let m_torn = Obs.Metrics.counter "wal.torn_tails"

type sync_policy = Sync_none | Sync_every | Sync_interval of int

let sync_policy_to_string = function
  | Sync_none -> "none"
  | Sync_every -> "every"
  | Sync_interval n -> Printf.sprintf "interval:%d" n

let sync_policy_of_string s =
  match s with
  | "none" -> Ok Sync_none
  | "every" -> Ok Sync_every
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "interval" -> (
          let n = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (Sync_interval n)
          | _ -> Error (Printf.sprintf "bad fsync interval %S" n))
      | _ ->
          Error
            (Printf.sprintf
               "unknown sync policy %S (expected none, every or interval:N)" s))

type t = {
  dir : string;
  sync_policy : sync_policy;
  snapshot_every : int;
  quiet : bool;
  mutable writer : Xlog.writer option;
      (** [None] until the first append into an empty directory: opening
          a directory never creates a file in it *)
  mutable segment_first : int;  (** first LSN of the writer's segment *)
  mutable next_lsn : int;
  mutable unsynced : int;
  mutable snap_pending : int;
  mutable payloads : string list;  (** recovered record payloads, in order *)
  mutable torn : bool;  (** a torn tail was truncated on open *)
  mutable closed : bool;
}

let dir t = t.dir

let is_empty t = t.payloads = [] && t.next_lsn = 1

let had_torn_tail t = t.torn

(* ---------------------------------------------------------------- *)
(* Directory layout *)

let seg_name n = Printf.sprintf "wal-%016d.xlog" n

let snap_name n = Printf.sprintf "snap-%016d.snap" n

let parse_numbered ~prefix ~suffix name =
  let lp = String.length prefix and ls = String.length suffix in
  let l = String.length name in
  if
    l = lp + 16 + ls
    && String.sub name 0 lp = prefix
    && String.sub name (l - ls) ls = suffix
  then int_of_string_opt (String.sub name lp 16)
  else None

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let warn t fmt =
  Format.ksprintf
    (fun m -> if not t.quiet then Fmt.epr "corechase: wal: %s@." m)
    fmt

(* ---------------------------------------------------------------- *)
(* Open: scan the directory, classify torn vs corrupt, position the
   writer after the last durable record. *)

let ( let* ) = Result.bind

let scan_segments segs =
  (* [segs] sorted by first-LSN; returns (frames in order, last segment
     info for the writer).  Torn tails are legal only in the last
     segment; LSNs must be continuous across segment boundaries and each
     nonempty segment's first frame must match its filename. *)
  let rec go acc last = function
    | [] -> Ok (List.rev acc, last)
    | (n, path) :: rest ->
        let is_last = rest = [] in
        let* scan = Xlog.scan_file ~magic:Xlog.wal_magic path in
        if scan.Xlog.torn && not is_last then
          Error
            (Printf.sprintf "%s: torn tail in a non-final segment (mid-log corruption)" path)
        else begin
          let check =
            match scan.Xlog.frames with
            | [] ->
                if is_last then Ok ()
                else Error (Printf.sprintf "%s: empty non-final segment" path)
            | (first, _) :: _ ->
                if first <> n then
                  Error
                    (Printf.sprintf "%s: first frame has lsn %d (expected %d)" path first n)
                else Ok ()
          in
          let* () = check in
          let acc = List.rev_append scan.Xlog.frames acc in
          go acc (Some (n, path, scan)) rest
        end
  in
  go [] None segs

let check_continuity frames =
  let rec go expected = function
    | [] -> Ok ()
    | (lsn, _) :: rest -> (
        match expected with
        | Some e when lsn <> e ->
            Error (Printf.sprintf "lsn gap: expected %d, found %d" e lsn)
        | _ -> go (Some (lsn + 1)) rest)
  in
  go None frames

let open_dir ?(sync = Sync_every) ?(snapshot_every = 0) ?(quiet = false) dir =
  match
    mkdir_p dir;
    if not (Sys.is_directory dir) then
      Error (dir ^ ": not a directory")
    else Ok (Sys.readdir dir)
  with
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, _, _) ->
      Error (dir ^ ": " ^ Unix.error_message e)
  | Error m -> Error m
  | Ok entries ->
      (* snapshot temp files are pre-rename leftovers of a crashed (or
         fault-injected) snapshot write: never valid, always removed *)
      Array.iter
        (fun n ->
          if Filename.check_suffix n ".tmp" then
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        entries;
      let numbered prefix suffix =
        Array.to_list entries
        |> List.filter_map (fun n ->
               match parse_numbered ~prefix ~suffix n with
               | Some i -> Some (i, Filename.concat dir n)
               | None -> None)
        |> List.sort compare
      in
      let segs = numbered "wal-" ".xlog" in
      let snaps = numbered "snap-" ".snap" in
      let* frames, last_seg = scan_segments segs in
      let* () =
        Result.map_error (fun m -> dir ^ ": " ^ m) (check_continuity frames)
      in
      let* snap_payloads, covers =
        match List.rev snaps with
        | [] -> Ok ([], 0)
        | (n, path) :: _ -> (
            match Xlog.scan_file ~magic:Xlog.snap_magic path with
            | Error m -> Error (m ^ " (corrupt snapshot; delete it to fall back)")
            | Ok scan ->
                if scan.Xlog.torn then
                  Error
                    (path
                   ^ ": torn snapshot (snapshots are written atomically; \
                      delete it to fall back)")
                else Ok (List.map snd scan.Xlog.frames, n))
      in
      let* () =
        (* the tail must connect to the snapshot: every LSN in
           (covers, first-frame) must exist *)
        match frames with
        | (first, _) :: _ when covers > 0 && first > covers + 1 ->
            Error
              (Printf.sprintf
                 "%s: lsn gap between snapshot (covers %d) and first segment \
                  frame %d"
                 dir covers first)
        | [] when covers > 0 && segs = [] ->
            Error (dir ^ ": snapshot without any log segment")
        | _ -> Ok ()
      in
      let last_lsn = match List.rev frames with (l, _) :: _ -> l | [] -> covers in
      let* () =
        if covers > last_lsn then
          Error
            (Printf.sprintf "%s: snapshot covers lsn %d beyond the log end %d"
               dir covers last_lsn)
        else Ok ()
      in
      let next_lsn = last_lsn + 1 in
      let tail =
        List.filter_map
          (fun (lsn, p) -> if lsn > covers then Some p else None)
          frames
      in
      let torn =
        match last_seg with Some (_, _, s) -> s.Xlog.torn | None -> false
      in
      let writer, segment_first =
        match last_seg with
        | Some (n, path, scan) ->
            ( Some
                (Xlog.append_writer ~magic:Xlog.wal_magic path
                   ~valid_size:scan.Xlog.valid_size),
              n )
        | None -> (None, next_lsn)
      in
      let t =
        {
          dir;
          sync_policy = sync;
          snapshot_every;
          quiet;
          writer;
          segment_first;
          next_lsn;
          unsynced = 0;
          snap_pending = 0;
          payloads = snap_payloads @ tail;
          torn;
          closed = false;
        }
      in
      if torn then begin
        if !Obs.Metrics.enabled then Obs.Metrics.incr m_torn;
        warn t "%s: truncated a torn final record (crash mid-write); resuming \
                from the last durable record" dir
      end;
      Ok t

(* ---------------------------------------------------------------- *)
(* Appending *)

let do_sync t =
  match t.writer with
  | None -> ()
  | Some w ->
      Xlog.sync w;
      t.unsynced <- 0;
      if !Obs.Metrics.enabled then Obs.Metrics.incr m_fsyncs

(* the segment a fresh log starts in is created by its first record *)
let writer t =
  match t.writer with
  | Some w -> w
  | None ->
      let w =
        Xlog.create_writer ~magic:Xlog.wal_magic
          (Filename.concat t.dir (seg_name t.segment_first))
      in
      t.writer <- Some w;
      w

let sync t = if not t.closed then do_sync t

let append t record =
  if t.closed then invalid_arg "Wal.append: closed";
  let payload = Record.encode record in
  Xlog.append (writer t) ~lsn:t.next_lsn payload;
  t.next_lsn <- t.next_lsn + 1;
  if !Obs.Metrics.enabled then Obs.Metrics.incr m_appends;
  (* the mid-fsync kill window: the frame is written but not yet
     durable — a fault here leaves a tail the next open may find torn *)
  Resilience.Fault.hit "wal";
  match t.sync_policy with
  | Sync_none -> ()
  | Sync_every -> do_sync t
  | Sync_interval n ->
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= n then do_sync t

let close t =
  if not t.closed then begin
    (try do_sync t with Unix.Unix_error _ -> ());
    Option.iter Xlog.close_writer t.writer;
    t.closed <- true
  end

(* ---------------------------------------------------------------- *)
(* Snapshots *)

let write_snapshot t records =
  let covers = t.next_lsn - 1 in
  if covers > 0 && records <> [] && not t.closed then begin
    (* the snapshot claims everything ≤ covers is durable: make it so *)
    do_sync t;
    let tmp = Filename.concat t.dir (Printf.sprintf "snap-%016d.tmp" covers) in
    let w = Xlog.create_writer ~magic:Xlog.snap_magic tmp in
    List.iteri (fun i r -> Xlog.append w ~lsn:(i + 1) (Record.encode r)) records;
    Xlog.sync w;
    Xlog.close_writer w;
    (* the pre-rename kill window: the temp file is complete but the
       snapshot does not exist yet — recovery falls back to the
       previous one and a longer replay *)
    Resilience.Fault.hit "snap";
    let path = Filename.concat t.dir (snap_name covers) in
    Unix.rename tmp path;
    if Obs.Trace.enabled () then
      Obs.Trace.emit
        (Obs.Trace.Snapshot_written
           { path; lsn = covers; records = List.length records });
    (* rotate to a fresh segment so recovery never re-reads frames the
       snapshot already covers *)
    if t.segment_first < t.next_lsn then begin
      Option.iter Xlog.close_writer t.writer;
      let seg = seg_name t.next_lsn in
      t.writer <-
        Some
          (Xlog.create_writer ~magic:Xlog.wal_magic (Filename.concat t.dir seg));
      t.segment_first <- t.next_lsn;
      t.unsynced <- 0;
      if Obs.Trace.enabled () then
        Obs.Trace.emit (Obs.Trace.Wal_rotate { segment = seg; lsn = t.next_lsn })
    end
  end

let maybe_snapshot t records_fn =
  if t.snapshot_every > 0 then begin
    t.snap_pending <- t.snap_pending + 1;
    if t.snap_pending >= t.snapshot_every then begin
      t.snap_pending <- 0;
      write_snapshot t (records_fn ())
    end
  end

(* ---------------------------------------------------------------- *)
(* Recovery: generic record decode (serve), and the chase replay. *)

let emit_recovered t ~records =
  if !Obs.Metrics.enabled then Obs.Metrics.add m_replayed records;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      (Obs.Trace.Recovery_replayed { dir = t.dir; records; torn = t.torn })

let records t =
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match Record.decode p with
        | Ok r -> go (r :: acc) (i + 1) rest
        | Error m -> Error (Printf.sprintf "%s: record %d: %s" t.dir i m))
  in
  let* rs = go [] 0 t.payloads in
  emit_recovered t ~records:(List.length rs);
  Ok rs

type chase_header = {
  h_engine : string;
  h_kb_path : string option;
  h_kb_digest : string option;
  h_budget : Chase.Variants.budget;
}

let peek_header t =
  match t.payloads with
  | [] -> Ok None
  | p :: _ -> (
      match Record.decode p with
      | Error m -> Error (Printf.sprintf "%s: first record: %s" t.dir m)
      | Ok
          (Record.Begin
            { engine; kb_path; kb_digest; max_steps; max_atoms; _ }) ->
          Ok
            (Some
               {
                 h_engine = engine;
                 h_kb_path = kb_path;
                 h_kb_digest = kb_digest;
                 h_budget = { Chase.Variants.max_steps; max_atoms };
               })
      | Ok r ->
          Error
            (Printf.sprintf "%s: first record is %s, not a run header" t.dir
               (Record.kind_name r)))

type durable = {
  d_last_step : int;  (** highest durable step index; -1 when none *)
  d_tail_retract : bool;  (** the last durable record is a [Retract] *)
  d_rounds : int;  (** rounds whose [Round] record is durable *)
  d_has_start : bool;  (** σ₀ (or a snapshot step 0) is durable *)
}

let no_durable =
  { d_last_step = -1; d_tail_retract = false; d_rounds = 0; d_has_start = false }

type recovered = {
  r_header : chase_header;
  r_state : Chase.Variants.engine_state option;
      (** the last durable round boundary; [None] when the crash
          happened before the first completed round *)
  r_durable : durable;
  r_records : int;
  r_torn : bool;
}

exception Replay of string

let recover t kb =
  if t.payloads = [] then
    Error (t.dir ^ ": WAL is empty (nothing to recover)")
  else begin
    let fail i fmt =
      Printf.ksprintf (fun m -> raise (Replay (Printf.sprintf "%s: record %d: %s" t.dir i m))) fmt
    in
    let header = ref None in
    let begin_counter = ref None in
    let steps_rev : Chase.Derivation.step list ref = ref [] in
    let boundary = ref None in
    let last_retract = ref false in
    let count = ref 0 in
    match
      List.iteri
        (fun i payload ->
          let r =
            match Record.decode payload with
            | Ok r -> r
            | Error m -> fail i "undecodable payload (%s)" m
          in
          incr count;
          last_retract := (match r with Record.Retract _ -> true | _ -> false);
          match r with
          | Record.Begin
              {
                engine;
                kb_path;
                kb_digest;
                max_steps;
                max_atoms;
                term_counter;
              } ->
              if !header <> None then fail i "duplicate run header";
              if i <> 0 then fail i "run header is not the first record";
              header :=
                Some
                  {
                    h_engine = engine;
                    h_kb_path = kb_path;
                    h_kb_digest = kb_digest;
                    h_budget = { Chase.Variants.max_steps; max_atoms };
                  };
              begin_counter := Some term_counter
          | Record.Start { sigma } ->
              if !steps_rev <> [] then fail i "start record after steps";
              let f = Kb.facts kb in
              steps_rev :=
                [
                  {
                    Chase.Derivation.index = 0;
                    trigger = None;
                    pi_safe = Subst.empty;
                    pre_instance = f;
                    simplification = sigma;
                    instance = Subst.apply sigma f;
                  };
                ]
          | Record.Add { index; pi_safe; sigma; added } -> (
              match !steps_rev with
              | [] -> fail i "step before the start record"
              | prev :: _ ->
                  if index <> prev.Chase.Derivation.index + 1 then
                    fail i "step index %d does not follow %d" index
                      prev.Chase.Derivation.index;
                  let pre =
                    Atomset.union prev.Chase.Derivation.instance
                      (Atomset.of_list added)
                  in
                  steps_rev :=
                    {
                      Chase.Derivation.index;
                      trigger = None;
                      pi_safe;
                      pre_instance = pre;
                      simplification = sigma;
                      instance = Subst.apply sigma pre;
                    }
                    :: !steps_rev)
          | Record.Snap_step { index; pi_safe; sigma; pre; inst } ->
              (match !steps_rev with
              | [] -> if index <> 0 then fail i "snapshot does not start at 0"
              | prev :: _ ->
                  if index <> prev.Chase.Derivation.index + 1 then
                    fail i "snapshot step index %d does not follow %d" index
                      prev.Chase.Derivation.index);
              steps_rev :=
                {
                  Chase.Derivation.index;
                  trigger = None;
                  pi_safe;
                  pre_instance = Atomset.of_list pre;
                  simplification = sigma;
                  instance = Atomset.of_list inst;
                }
                :: !steps_rev
          | Record.Retract { index; sigma } -> (
              match !steps_rev with
              | st :: rest when st.Chase.Derivation.index = index ->
                  steps_rev :=
                    {
                      st with
                      Chase.Derivation.simplification = sigma;
                      instance =
                        Subst.apply sigma st.Chase.Derivation.pre_instance;
                    }
                    :: rest
              | _ -> fail i "retract does not target the last step")
          | Record.Round { rounds; steps; snapshot_index; term_counter } ->
              if !steps_rev = [] then fail i "round boundary before any step";
              boundary :=
                Some (rounds, steps, snapshot_index, term_counter, !steps_rev)
          | Record.Merge _ ->
              fail i "merge record (EGD runs are journaled but not resumable)"
          | Record.Sess_op _ | Record.Sess_chase _ | Record.Sess_gen _ ->
              fail i "session record in a chase log")
        t.payloads
    with
    | exception Replay m -> Error m
    | exception Invalid_argument m -> Error (t.dir ^ ": " ^ m)
    | () -> (
        match !header with
        | None -> Error (t.dir ^ ": no run header record")
        | Some h ->
            let durable =
              {
                d_last_step =
                  (match !steps_rev with
                  | [] -> -1
                  | st :: _ -> st.Chase.Derivation.index);
                d_tail_retract = !last_retract;
                d_rounds =
                  (match !boundary with
                  | Some (r, _, _, _, _) -> r
                  | None -> 0);
                d_has_start = !steps_rev <> [];
              }
            in
            let state =
              match !boundary with
              | Some (rounds, steps, snap_index, tc, srev) -> (
                  match Chase.Derivation.of_steps kb (List.rev srev) with
                  | exception Invalid_argument m ->
                      Error (t.dir ^ ": inconsistent log: " ^ m)
                  | d ->
                      Term.restore_counter_for_resume tc;
                      Ok
                        (Some
                           {
                             Chase.Variants.state_derivation = d;
                             state_steps = steps;
                             state_rounds = rounds;
                             state_snapshot =
                               (if snap_index < 0 then None
                                else
                                  Some (Chase.Derivation.instance_at d snap_index));
                           }))
              | None ->
                  Option.iter Term.restore_counter_for_resume !begin_counter;
                  Ok None
            in
            let* state = state in
            emit_recovered t ~records:!count;
            Ok
              {
                r_header = h;
                r_state = state;
                r_durable = durable;
                r_records = !count;
                r_torn = t.torn;
              })
  end

(* ---------------------------------------------------------------- *)
(* The chase-side hook *)

let digest_of_file path =
  try Some (Digest.to_hex (Digest.file path)) with Sys_error _ -> None

let begin_record ~engine ?kb_path ?kb_digest ~(budget : Chase.Variants.budget)
    () =
  Record.Begin
    {
      engine;
      kb_path;
      kb_digest;
      max_steps = budget.Chase.Variants.max_steps;
      max_atoms = budget.Chase.Variants.max_atoms;
      term_counter = Term.counter_value ();
    }

let round_record ~(state : Chase.Variants.engine_state) ~snapshot_index =
  Record.Round
    {
      rounds = state.Chase.Variants.state_rounds;
      steps = state.Chase.Variants.state_steps;
      snapshot_index;
      term_counter = Term.counter_value ();
    }

(* A round boundary in snapshot form: the header, one [Snap_step] per
   derivation step, and the [Round] record. *)
let chase_snapshot_records ~engine ?kb_path ?kb_digest ~budget ~state
    ~snapshot_index () =
  (begin_record ~engine ?kb_path ?kb_digest ~budget ()
  :: List.map
       (fun (s : Chase.Derivation.step) ->
         Record.Snap_step
           {
             index = s.Chase.Derivation.index;
             pi_safe = s.Chase.Derivation.pi_safe;
             sigma = s.Chase.Derivation.simplification;
             pre = Atomset.to_list s.Chase.Derivation.pre_instance;
             inst = Atomset.to_list s.Chase.Derivation.instance;
           })
       (Chase.Derivation.steps state.Chase.Variants.state_derivation))
  @ [ round_record ~state ~snapshot_index ]

let journal t ~engine ?kb_path ~budget ?(durable = no_durable) () :
    Chase.Variants.journal =
  let kb_digest = Option.bind kb_path digest_of_file in
  function
  | Chase.Variants.J_start { sigma } ->
      if is_empty t then begin
        append t (begin_record ~engine ?kb_path ?kb_digest ~budget ());
        append t (Record.Start { sigma })
      end
      else if not durable.d_has_start then append t (Record.Start { sigma })
  | Chase.Variants.J_step { index; pi_safe; sigma; added } ->
      if index > durable.d_last_step then
        append t (Record.Add { index; pi_safe; sigma; added })
  | Chase.Variants.J_round_sigma { index; sigma } ->
      if index > durable.d_last_step || not durable.d_tail_retract then
        append t (Record.Retract { index; sigma })
  | Chase.Variants.J_round { state; snapshot_index } ->
      if state.Chase.Variants.state_rounds > durable.d_rounds then
        append t (round_record ~state ~snapshot_index);
      maybe_snapshot t
        (chase_snapshot_records ~engine ?kb_path ?kb_digest ~budget ~state
           ~snapshot_index)
  | Chase.Variants.J_merge { sigma } -> append t (Record.Merge { sigma })
