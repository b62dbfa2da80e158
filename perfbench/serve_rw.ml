(* serve-rw: a real `corechase serve --wal DIR --wal-sync every --jobs 2`
   child process, driven over a unix socket by this process with two
   connections.

   - Reader sessions hold the transitive closure of a chain
     n0 -> ... -> n{m}, chased once at set-up.  The reader connection
     sends ENTAIL at one fixed open-loop rate; each request carries a
     3-cycle query (never entailed: the closure of a chain is acyclic)
     and a path query n{i} ->+ . ->+ . ->+ n{j} (entailed iff j - i >= 3),
     and is timed from its due time.
   - The writer connection cycles LOAD inline + CHASE (restricted) over
     its own sessions, each a chain whose closure size is known; every
     CHASE is journaled with an fsync.  One LOAD + CHASE cycle is this
     workload's job.
   - A reads-alone phase comes first, then reads beside writes.  At the
     end the daemon is killed with SIGKILL and restarted on the same WAL
     several times; the ENTAIL answers after the restarts must be
     byte-identical to those before the kill.

   The server (codec, select loop, Par.Batch readers) and storage (WAL
   append + fsync, replay) do the work. *)

module P = Server.Protocol

let run_dir = "perfbench/.run"
let sock = Filename.concat run_dir "s.sock"
let ready = Filename.concat run_dir "ready"

let reader_sessions = 4
let reader_chain = 30

(* Writer chain lengths: a fixed multiset, so the seed moves names and
   order but not the work.  Five equal classes put the median and the
   90th percentile of the cycle times inside a class, not on the edge
   between two. *)
let writer_chains = [| 22; 24; 25; 26; 28 |]

(* Reads per second, in both phases. *)
let rate = 40.

(* Writer cycles per second of --seconds: fixed work, so the WAL the
   recovery replays is the same size on every host. *)
let cycles_per_second = 8

let tc_doc m =
  String.concat ""
    (List.init m (fun i -> Printf.sprintf "g(n%d, n%d).\n" i (i + 1)))
  ^ "gt(X, Y) :- g(X, Y).\ngt(X, Z) :- gt(X, Y), g(Y, Z).\n"

(* atoms of the chased closure of an m-chain: m g-edges and m(m+1)/2
   gt-pairs *)
let tc_atoms m = m + (m * (m + 1) / 2)

(* {1 Wire client} *)

type conn = { fd : Unix.file_descr; mutable inbuf : string }

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let send c payload =
  write_all c.fd (P.encode { P.kind = P.K_req; payload }) 0

let chunk = Bytes.create 65536

(* Read what is available and return the complete frames. *)
let pump c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "daemon closed the connection";
  c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 n;
  match P.decode_all c.inbuf with
  | Ok (frames, used) ->
      c.inbuf <- String.sub c.inbuf used (String.length c.inbuf - used);
      frames
  | Error (e, _) -> failwith (Fmt.str "bad frame from daemon: %a" P.pp_error e)

(* Block until one full response (frames up to ok/err) arrives. *)
let rec response ?(acc = []) c =
  let rec split acc = function
    | [] -> None
    | f :: rest when f.P.kind = P.K_ok || f.P.kind = P.K_err ->
        Some (List.rev (f :: acc), rest)
    | f :: rest -> split (f :: acc) rest
  in
  match split [] acc with
  | Some (r, rest) ->
      (* a request/response client never has a second response queued *)
      assert (rest = []);
      r
  | None -> response ~acc:(acc @ pump c) c

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let c = { fd; inbuf = "" } in
  let rec hello () =
    match pump c with
    | [] -> hello ()
    | [ { P.kind = P.K_hello; _ } ] -> ()
    | _ -> failwith "no hello from daemon"
  in
  hello ();
  c

let final frames = List.nth frames (List.length frames - 1)

let request c payload =
  send c payload;
  response c

(* {1 The daemon} *)

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let spawn ~cli ~wal ~metrics =
  (try Sys.remove ready with Sys_error _ -> ());
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ cli; "serve"; "--listen"; "unix:" ^ sock; "--ready-file"; ready;
      "--wal"; wal; "--wal-sync"; "every"; "--jobs"; "2"; "--quiet" ]
    @ if metrics then [ "--metrics" ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list args) Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  let deadline = Common.now () +. 60. in
  while not (Sys.file_exists ready) do
    if Common.now () > deadline then failwith "daemon did not become ready";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited before becoming ready");
    Unix.sleepf 0.0005
  done;
  pid

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* {1 Workload} *)

type reader_q = { session : string; payload : string; expect : string list }

let reader_query st k =
  let session = Printf.sprintf "r%d" (k mod reader_sessions) in
  let i = Random.State.int st (reader_chain - 1) in
  let j = i + 1 + Random.State.int st (reader_chain - i - 1) in
  {
    session;
    payload =
      Printf.sprintf
        "ENTAIL %s\n? :- gt(X, Y), gt(Y, Z), gt(Z, X).\n? :- gt(n%d, X), gt(X, Y), gt(Y, n%d).\n"
        session i j;
    expect = [ "not entailed"; (if j - i >= 3 then "entailed" else "not entailed") ];
  }

(* The verdicts of an ENTAIL response, one per query, or an error. *)
let verdicts frames =
  List.filter_map
    (fun f ->
      if f.P.kind <> P.K_data then None
      else
        match String.split_on_char ' ' f.P.payload |> List.rev with
        | "entailed" :: "not" :: _ -> Some "not entailed"
        | "entailed" :: _ -> Some "entailed"
        | _ -> Some f.P.payload)
    frames

let check_ok what frames =
  match final frames with
  | { P.kind = P.K_ok; _ } -> Ok ()
  | { P.payload; _ } -> Error (what ^ ": " ^ payload)

(* OPEN/LOAD/CHASE the reader sessions. *)
let setup_readers tally c =
  for k = 0 to reader_sessions - 1 do
    let s = Printf.sprintf "r%d" k in
    Common.check tally ("OPEN " ^ s) (check_ok "open" (request c ("OPEN " ^ s)));
    Common.check tally ("LOAD " ^ s)
      (check_ok "load" (request c (Printf.sprintf "LOAD %s inline\n%s" s (tc_doc reader_chain))));
    Common.check tally ("CHASE " ^ s)
      (check_ok "chase" (request c (Printf.sprintf "CHASE %s variant=restricted steps=5000" s)))
  done

type phase = {
  mutable latencies : float list;  (** calibrated ms from due time *)
  mutable late : float list;  (** raw ms the generator sent after due *)
}

type writer = {
  mutable jobs : float list;  (** calibrated LOAD + CHASE cycle ms *)
  mutable loads : float list;
  mutable chases : float list;
  mutable atoms : int;  (** atoms journaled by the writer's CHASEs *)
}

(* Run the open-loop reader for [duration] seconds (or, with a writer,
   until the writer has done [cycles] cycles), then drain. *)
let drive tally st ~reader ~writer_conn ~cycles ~duration ~wr =
  let ph = { latencies = []; late = [] } in
  let outstanding = Queue.create () in
  let k = ref 0 in
  let start = Common.now () in
  let next_due = ref start in
  let factor = ref (Common.nominal_ref_ms /. Common.take_ref ()) in
  let last_cal = ref (Common.now ()) in
  (* writer state: cycles left, the step in progress and its start *)
  let left = ref cycles in
  let wstate = ref `Idle in
  let wsess = ref (Random.State.int st (Array.length writer_chains)) in
  let cycle_start = ref 0. and load_ms = ref 0. and before = ref None in
  let wexpect = ref 0 in
  let done_writing () = !left = 0 && !wstate = `Idle in
  let reading () =
    match writer_conn with
    | None -> Common.now () -. start < duration
    | Some _ -> not (done_writing ())
  in
  let start_cycle wc =
    let m = writer_chains.(!wsess mod Array.length writer_chains) in
    let s = Printf.sprintf "w%d" (!wsess mod Array.length writer_chains) in
    incr wsess;
    if !before = None then before := Some (Common.take_ref ());
    wexpect := m;
    cycle_start := Common.now ();
    send wc (Printf.sprintf "LOAD %s inline\n%s" s (tc_doc m));
    wstate := `Load s
  in
  let on_writer_frames wc frames =
    match (!wstate, List.rev frames) with
    | `Load s, last :: _ when last.P.kind = P.K_ok || last.P.kind = P.K_err ->
        Common.check tally ("LOAD " ^ s) (check_ok "load" frames);
        load_ms := Common.ms_since !cycle_start;
        send wc (Printf.sprintf "CHASE %s variant=restricted steps=5000" s);
        wstate := `Chase s
    | `Chase s, last :: _ when last.P.kind = P.K_ok || last.P.kind = P.K_err ->
        let total = Common.ms_since !cycle_start in
        let m = !wexpect in
        let want =
          Printf.sprintf ": fixpoint, %d steps, %d atoms" (m * (m + 1) / 2)
            (tc_atoms m)
        in
        let r =
          match last with
          | { P.kind = P.K_ok; payload } when String.ends_with ~suffix:want payload -> Ok ()
          | { P.payload; _ } -> Error payload
        in
        Common.check tally ("CHASE " ^ s) r;
        let after = Common.take_ref () in
        let k = Common.factor_of (Option.get !before) after in
        before := Some after;
        factor := k;
        wr.jobs <- (total *. k) :: wr.jobs;
        wr.loads <- (!load_ms *. k) :: wr.loads;
        wr.chases <- ((total -. !load_ms) *. k) :: wr.chases;
        wr.atoms <- wr.atoms + tc_atoms m;
        decr left;
        wstate := `Idle
    | _ -> ()
  in
  let wbuf = ref [] in
  let rbuf = ref [] in
  let on_reader_frames frames =
    rbuf := !rbuf @ frames;
    let rec take () =
      match
        List.find_index (fun f -> f.P.kind = P.K_ok || f.P.kind = P.K_err) !rbuf
      with
      | None -> ()
      | Some i ->
          let resp = List.filteri (fun j _ -> j <= i) !rbuf in
          rbuf := List.filteri (fun j _ -> j > i) !rbuf;
          let due, q = Queue.pop outstanding in
          let lat = Common.ms_since due in
          ph.latencies <- (lat *. !factor) :: ph.latencies;
          let got = verdicts resp in
          Common.check tally ("ENTAIL " ^ q.session)
            (if got = q.expect then Ok ()
             else Error (String.concat " | " got));
          take ()
    in
    take ()
  in
  let fds () =
    (if reading () || not (Queue.is_empty outstanding) then [ reader.fd ] else [])
    @ match writer_conn with Some wc when !wstate <> `Idle -> [ wc.fd ] | _ -> []
  in
  (match writer_conn with Some wc -> start_cycle wc | None -> ());
  while reading () || not (Queue.is_empty outstanding) do
    let now = Common.now () in
    (* recalibrate in a quiet gap of the reads-alone phase *)
    if writer_conn = None && Queue.is_empty outstanding
       && !next_due -. now > 0.008 && now -. !last_cal > 0.25
    then begin
      factor := Common.nominal_ref_ms /. Common.take_ref ();
      last_cal := Common.now ()
    end;
    let timeout =
      if reading () then Float.max 0. (!next_due -. Common.now ()) else 0.05
    in
    let r, _, _ =
      try Unix.select (fds ()) [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem reader.fd r then on_reader_frames (pump reader);
    (match writer_conn with
    | Some wc when List.mem wc.fd r ->
        wbuf := !wbuf @ pump wc;
        if List.exists (fun f -> f.P.kind = P.K_ok || f.P.kind = P.K_err) !wbuf
        then begin
          let frames = !wbuf in
          wbuf := [];
          on_writer_frames wc frames;
          if !wstate = `Idle && !left > 0 then start_cycle wc
        end
    | _ -> ());
    while reading () && Common.now () >= !next_due do
      let q = reader_query st !k in
      incr k;
      ph.late <- Common.ms_since !next_due :: ph.late;
      send reader q.payload;
      Queue.push (!next_due, q) outstanding;
      next_due := !next_due +. (1. /. rate)
    done
  done;
  ph

(* The ENTAIL answers of every reader session, byte for byte. *)
let snapshot_answers c =
  List.init reader_sessions (fun k ->
      let frames =
        request c
          (Printf.sprintf
             "ENTAIL r%d\n? :- gt(X, Y), gt(Y, Z), gt(Z, X).\n? :- gt(n0, X), gt(X, Y), gt(Y, n%d).\n"
             k reader_chain)
      in
      String.concat "\n" (List.map (fun f -> P.kind_name f.P.kind ^ " " ^ f.P.payload) frames))

(* Counters of a daemon's METRICS dump. *)
let daemon_counters c =
  List.concat_map
    (fun f ->
      if f.P.kind <> P.K_data then []
      else
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
            | [ name; v ] -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
            | _ -> None)
          (String.split_on_char '\n' f.P.payload))
    (request c "METRICS")

let dir_bytes d =
  Array.fold_left
    (fun acc e -> acc + (Unix.stat (Filename.concat d e)).Unix.st_size)
    0 (Sys.readdir d)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun e ->
      let data = In_channel.with_open_bin (Filename.concat src e) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst e) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

(* [--recovery-split DIR]: time the three recovery steps the daemon runs
   on start, calibrated, and print them as "open records restore" ms. *)
let recovery_split dir =
  let before = Common.take_ref () in
  let t0 = Common.now () in
  let w = Result.get_ok (Storage.Wal.open_dir ~quiet:true dir) in
  let t1 = Common.now () in
  let records = Result.get_ok (Storage.Wal.records w) in
  let t2 = Common.now () in
  (match Server.Session.restore (Server.Session.create ()) records with
  | Ok () -> ()
  | Error m -> failwith m);
  let t3 = Common.now () in
  Storage.Wal.close w;
  let k = Common.factor_of before (Common.take_ref ()) in
  let ms a b = (b -. a) *. 1000. *. k in
  Printf.printf "%.6f %.6f %.6f\n" (ms t0 t1) (ms t1 t2) (ms t2 t3)

let setup_repeats = 5
let restarts = 3

type result = {
  tally : Common.tally;
  setup_s : float list;
  writer : writer;
  idle : phase;
  mixed : phase;
  recover_s : float list;
  wal_bytes : int;
  rss_mb : float;
  counters : (string * int) list * (string * int) list;
  replayed : int;
  split : (string * float) list;  (** recovery split, calibrated ms *)
}

let run ~cli ~seed ~seconds ~trace =
  if not (Sys.file_exists cli) then failwith ("no corechase binary at " ^ cli);
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  let tally = Common.tally () in
  let st = Common.rng seed in
  Fun.protect ~finally:(fun () -> rm_rf run_dir) @@ fun () ->
  (* set-up, repeated: boot on a fresh WAL + the reader sessions *)
  let daemon = ref None in
  let setup_s =
    List.init setup_repeats (fun i ->
        Option.iter (fun (pid, c) -> Unix.close c.fd; kill9 pid) !daemon;
        let wal = Filename.concat run_dir (Printf.sprintf "wal%d" i) in
        let before = Common.take_ref () in
        let t0 = Common.now () in
        let pid = spawn ~cli ~wal ~metrics:trace in
        let c = connect () in
        setup_readers tally c;
        let s = Common.ms_since t0 /. 1000. in
        let s = s *. Common.factor_of before (Common.take_ref ()) in
        daemon := Some (pid, c);
        s)
  in
  let wal = Filename.concat run_dir (Printf.sprintf "wal%d" (setup_repeats - 1)) in
  let pid, reader = Option.get !daemon in
  let writer_c = connect () in
  Array.iteri
    (fun k _ ->
      Common.check tally "OPEN writer"
        (check_ok "open" (request writer_c (Printf.sprintf "OPEN w%d" k))))
    writer_chains;
  let before = if trace then daemon_counters reader else [] in
  let wr = { jobs = []; loads = []; chases = []; atoms = 0 } in
  let idle =
    drive tally st ~reader ~writer_conn:None ~cycles:0
      ~duration:(seconds /. 4.) ~wr
  in
  let cycles = max 1 (int_of_float (seconds *. float_of_int cycles_per_second)) in
  let mixed =
    drive tally st ~reader ~writer_conn:(Some writer_c) ~cycles ~duration:0. ~wr
  in
  let after = if trace then daemon_counters reader else [] in
  let answers = snapshot_answers reader in
  let wal_bytes = dir_bytes wal in
  (* the recovery split, on a copy of the WAL, in a fresh process like
     the restarted daemon *)
  let split =
    if not trace then []
    else begin
      let copy = Filename.concat run_dir "walcopy" in
      let samples =
        List.init restarts (fun _ ->
            rm_rf copy;
            copy_dir wal copy;
            let ic =
              Unix.open_process_args_in Sys.executable_name
                [| Sys.executable_name; "--recovery-split"; copy |]
            in
            let line = In_channel.input_all ic in
            (match Unix.close_process_in ic with
            | Unix.WEXITED 0 -> ()
            | _ -> failwith "recovery split failed");
            Scanf.sscanf line "%f %f %f" (fun a b c ->
                [ ("storage.open_ms", a); ("storage.records_ms", b); ("server.restore_ms", c) ]))
      in
      List.map
        (fun (name, _) ->
          (name, Common.median (List.map (List.assoc name) samples)))
        (List.hd samples)
    end
  in
  Unix.close writer_c.fd;
  Unix.close reader.fd;
  (* kill -9 and restart on the same WAL, several times *)
  let pid = ref pid in
  let recover_s =
    List.init restarts (fun _ ->
        kill9 !pid;
        let before = Common.take_ref () in
        let t0 = Common.now () in
        pid := spawn ~cli ~wal ~metrics:trace;
        let s = Common.ms_since t0 /. 1000. in
        s *. Common.factor_of before (Common.take_ref ()))
  in
  let c = connect () in
  let replayed =
    if trace then Option.value (List.assoc_opt "wal.replayed_records" (daemon_counters c)) ~default:0
    else 0
  in
  let again = snapshot_answers c in
  (* The live daemon's peak depends on how its two domains' collections
     interleave (it moved by 13% between runs of one seed); the
     recovered daemon holds the same sessions, replayed on one domain,
     and repeats within 2%. *)
  let rss_mb = Common.vm_hwm_mb (string_of_int !pid) in
  List.iteri
    (fun k (a, b) ->
      Common.check tally (Printf.sprintf "ENTAIL r%d after restart" k)
        (if a = b then Ok () else Error ("before:\n" ^ a ^ "\nafter:\n" ^ b)))
    (List.combine answers again);
  Unix.close c.fd;
  kill9 !pid;
  {
    tally; setup_s; writer = wr; idle; mixed; recover_s; wal_bytes; rss_mb;
    counters = (before, after); replayed; split;
  }

let end_to_end r =
  let n = float_of_int (List.length r.writer.jobs) in
  [
    ("setup_s", Common.median r.setup_s);
    ("jobs_per_s", n /. (Common.sum r.writer.jobs /. 1000.));
    ("job_p50_ms", Common.quantile 0.5 r.writer.jobs);
    ("job_p90_ms", Common.quantile 0.9 r.writer.jobs);
    ("peak_rss_mb", r.rss_mb);
  ]

(* Per-request times: [server.*] are means (time the daemon was busy per
   request, as seen by the client), the [*_p50_ms] metrics medians. *)
let layer_values r =
  let mean xs = Common.sum xs /. float_of_int (List.length xs) in
  let before, after = r.counters in
  let d name = float_of_int (Layers.delta before after name) in
  let recover_ms = 1000. *. Common.median r.recover_s in
  let unattributed =
    Report.print_layer_table ~per:"recovery" ~workload:"serve-rw" ~total:recover_ms
      ~rows:r.split
      ~predicted:"mostly server + storage"
      ~dominant:[ "storage.open_ms"; "storage.records_ms"; "server.restore_ms" ] ()
  in
  [
    ("server.load_ms", mean r.writer.loads);
    ("server.chase_ms", mean r.writer.chases);
    ("server.entail_ms", mean r.idle.latencies);
    ("gen.late_p90_ms", Common.quantile 0.9 (r.idle.late @ r.mixed.late));
    ("serve.entails", d "serve.entails");
    ("par.batch.tasks", d "par.batch.tasks");
    ("wal.appends", d "wal.appends");
    ("wal.fsyncs", d "wal.fsyncs");
    ( "wal.bytes_per_atom",
      float_of_int r.wal_bytes
      /. float_of_int (r.writer.atoms + (reader_sessions * tc_atoms reader_chain)) );
    ("wal.replayed_records", float_of_int r.replayed);
    ("entail_p50_ms", Common.quantile 0.5 r.mixed.latencies);
    ("entail_p90_ms", Common.quantile 0.9 r.mixed.latencies);
    ("entail_idle_p50_ms", Common.quantile 0.5 r.idle.latencies);
    ("chase_p50_ms", Common.quantile 0.5 r.writer.chases);
    ("recover_s", Common.median r.recover_s);
    ("wal_mb", float_of_int r.wal_bytes /. 1e6);
    ("unattributed_ms", unattributed);
  ]
  @ r.split
  @ List.map (fun k -> (k, d k)) Report.plain_counters
  @ Report.host_values ()
