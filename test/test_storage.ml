(* Tests for lib/storage (DESIGN.md §16): the CRC/frame/record codec
   stack, WAL directory open/append/snapshot semantics, torn-tail vs
   mid-file-corruption classification, and — the point of the layer —
   the kill-at-arbitrary-step recovery differential: a run killed at any
   record (or any byte) and recovered from its log must agree step for
   step with the uninterrupted run, for every engine, including the
   serve daemon's session logs. *)

open Syntax
module W = Storage.Wal
module R = Storage.Record
module X = Storage.Xlog

let tc name f = Alcotest.test_case name `Quick f

let reset () = Term.reset_counter_for_tests ()

let ok label = function
  | Ok v -> v
  | Error m -> Alcotest.fail (label ^ ": " ^ m)

let expect_error label = function
  | Ok _ -> Alcotest.fail (label ^ ": expected an error")
  | Error (m : string) -> m

(* fresh scratch directory (removed recursively by [with_dir]) *)
let temp_dir () =
  let path = Filename.temp_file "corechase" ".wal" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* substring check without extra deps *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let with_faults spec f =
  Resilience.Fault.set_spec spec;
  Fun.protect ~finally:Resilience.Fault.clear f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc_vector () =
  (* the IEEE 802.3 check value: crc32("123456789") *)
  Alcotest.(check int) "known vector" 0xCBF43926 (Storage.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Storage.Crc32.string "");
  Alcotest.(check int)
    "pair splits anywhere" (Storage.Crc32.string "123456789")
    (Storage.Crc32.pair "1234" "56789");
  Alcotest.(check int)
    "sub window"
    (Storage.Crc32.string "3456")
    (Storage.Crc32.string_sub "123456789" 2 4)

(* ------------------------------------------------------------------ *)
(* Record codec: deterministic round trips for every constructor (the
   randomized totality laws live in test_props.ml) *)

let sample_records () =
  let x = Term.fresh_var ~hint:"X" () and y = Term.fresh_var ~hint:"Y" () in
  let a = Term.const "a" and b = Term.const "b" in
  let atom p args = Atom.make p args in
  let sigma = Subst.of_list [ (x, a) ] in
  let pi = Subst.of_list [ (x, a); (y, b) ] in
  [
    R.Begin
      {
        engine = "core";
        kb_path = Some "data/family.dlgp";
        kb_digest = Some "7a6fb6c585d99dbe28ce7677c497c203";
        max_steps = 40;
        max_atoms = 5_000;
        term_counter = Term.counter_value ();
      };
    R.Begin
      {
        engine = "restricted";
        kb_path = None;
        kb_digest = None;
        max_steps = 0;
        max_atoms = 0;
        term_counter = 0;
      };
    R.Start { sigma = Subst.empty };
    R.Add
      {
        index = 3;
        pi_safe = pi;
        sigma;
        added = [ atom "r" [ a; y ]; atom "p" [ x ] ];
      };
    R.Retract { index = 3; sigma = pi };
    R.Merge { sigma };
    R.Round
      {
        rounds = 2;
        steps = 7;
        snapshot_index = -1;
        term_counter = 123;
      };
    R.Snap_step
      {
        index = 0;
        pi_safe = Subst.empty;
        sigma;
        pre = [ atom "r" [ a; b ] ];
        inst = [ atom "r" [ a; b ]; atom "p" [ a ] ];
      };
    R.Sess_op "OPEN s";
    R.Sess_chase
      {
        session = "s";
        variant = "core";
        max_steps = 500;
        max_atoms = 100_000;
        outcome = "fixpoint";
        chase_steps = 12;
        final = [ atom "p" [ a ]; atom "q" [ b ] ];
      };
    R.Sess_gen { session = "s"; generation = 4 };
  ]

let test_record_roundtrip () =
  reset ();
  List.iter
    (fun r ->
      let bytes = R.encode r in
      match R.decode bytes with
      | Error m -> Alcotest.fail (R.kind_name r ^ ": " ^ m)
      | Ok r' ->
          Alcotest.(check bool)
            (R.kind_name r ^ " round trips") true (R.equal r r'))
    (sample_records ())

let test_record_strict_prefixes_error () =
  reset ();
  List.iter
    (fun r ->
      let bytes = R.encode r in
      for len = 0 to String.length bytes - 1 do
        match R.decode (String.sub bytes 0 len) with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.fail
              (Printf.sprintf "%s: %d-byte prefix decoded" (R.kind_name r) len)
      done)
    (sample_records ())

let test_frame_roundtrip_and_flips () =
  let payload = "hello, wal" in
  let frame = X.encode_frame ~lsn:42 payload in
  (match X.decode_frame frame with
  | Ok (lsn, p, consumed) ->
      Alcotest.(check int) "lsn" 42 lsn;
      Alcotest.(check string) "payload" payload p;
      Alcotest.(check int) "consumed" (String.length frame) consumed
  | Error e -> Alcotest.fail (Fmt.str "frame: %a" X.pp_frame_error e));
  (* every strict prefix is torn *)
  for len = 0 to String.length frame - 1 do
    match X.decode_frame (String.sub frame 0 len) with
    | Error X.Torn -> ()
    | Error e ->
        Alcotest.fail (Fmt.str "prefix %d: expected torn, got %a" len X.pp_frame_error e)
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix %d decoded" len)
  done;
  (* every single-byte flip is detected *)
  for i = 0 to String.length frame - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match X.decode_frame (Bytes.to_string b) with
    | Ok (lsn, p, _) when lsn = 42 && p = payload ->
        Alcotest.fail (Printf.sprintf "flip at %d undetected" i)
    | Ok _ | Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* WAL directory: open/append/reopen, torn tails, corruption *)

let sess_ops n = List.init n (fun i -> R.Sess_op (Printf.sprintf "OPEN s%d" i))

let test_empty_dir () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir dir) in
  Alcotest.(check bool) "empty" true (W.is_empty w);
  Alcotest.(check bool) "no torn tail" false (W.had_torn_tail w);
  (match W.peek_header w with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "header out of an empty log"
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "no records" 0 (List.length (ok "records" (W.records w)));
  W.close w

let test_append_reopen () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir dir) in
  List.iter (W.append w) (sess_ops 5);
  W.close w;
  let w2 = ok "reopen" (W.open_dir dir) in
  Alcotest.(check bool) "not empty" false (W.is_empty w2);
  Alcotest.(check bool) "clean tail" false (W.had_torn_tail w2);
  let got = ok "records" (W.records w2) in
  Alcotest.(check int) "5 records" 5 (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "same record" true (R.equal a b))
    (sess_ops 5) got;
  (* the LSN sequence continues across reopen *)
  List.iter (W.append w2) (sess_ops 3);
  W.close w2;
  let w3 = ok "re-reopen" (W.open_dir dir) in
  Alcotest.(check int) "8 records" 8 (List.length (ok "records" (W.records w3)));
  W.close w3

let test_append_after_close_raises () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir dir) in
  W.close w;
  W.close w (* idempotent *);
  match W.append w (R.Sess_op "PING") with
  | () -> Alcotest.fail "append after close succeeded"
  | exception Invalid_argument _ -> ()

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".xlog")
  |> List.sort compare

let test_torn_tail_truncated () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir dir) in
  List.iter (W.append w) (sess_ops 4);
  W.close w;
  let seg = Filename.concat dir (List.hd (segment_files dir)) in
  let bytes = read_file seg in
  (* chop into the last frame: the classic kill-9 mid-write *)
  write_file seg (String.sub bytes 0 (String.length bytes - 3));
  let w2 = ok "reopen torn" (W.open_dir ~quiet:true dir) in
  Alcotest.(check bool) "torn tail seen" true (W.had_torn_tail w2);
  Alcotest.(check int) "last record dropped" 3
    (List.length (ok "records" (W.records w2)));
  (* the truncated log accepts new appends and reopens clean *)
  W.append w2 (R.Sess_op "OPEN again");
  W.close w2;
  let w3 = ok "reopen clean" (W.open_dir dir) in
  Alcotest.(check bool) "clean after truncate" false (W.had_torn_tail w3);
  Alcotest.(check int) "3 + 1 records" 4
    (List.length (ok "records" (W.records w3)));
  W.close w3

(* every byte-length prefix of a valid log opens: complete frames
   survive, the torn remainder is truncated — never an exception, never
   a refusal.  This is the kill-9-at-arbitrary-byte guarantee. *)
let test_prefix_sweep () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir dir) in
  List.iter (W.append w) (sess_ops 6);
  W.close w;
  let seg_name = List.hd (segment_files dir) in
  let bytes = read_file (Filename.concat dir seg_name) in
  let total = List.length (sess_ops 6) in
  for len = String.length X.wal_magic to String.length bytes do
    with_dir @@ fun dir2 ->
    write_file (Filename.concat dir2 seg_name) (String.sub bytes 0 len);
    let w2 = ok (Printf.sprintf "prefix %d" len) (W.open_dir ~quiet:true dir2) in
    let got = ok "records" (W.records w2) in
    Alcotest.(check bool)
      (Printf.sprintf "prefix %d is a record prefix" len)
      true
      (List.length got <= total
      && List.for_all2
           (fun a b -> R.equal a b)
           got
           (List.filteri (fun i _ -> i < List.length got) (sess_ops 6)));
    W.close w2
  done

let test_midfile_corruption_refused () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir dir) in
  List.iter (W.append w) (sess_ops 4);
  W.close w;
  let seg = Filename.concat dir (List.hd (segment_files dir)) in
  let bytes = read_file seg in
  (* flip one payload byte of the FIRST frame: the failure is not at
     end-of-file, so it is corruption, not a torn tail *)
  let b = Bytes.of_string bytes in
  let pos = String.length X.wal_magic + X.header_bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  write_file seg (Bytes.to_string b);
  let m = expect_error "corrupt open" (W.open_dir ~quiet:true dir) in
  Alcotest.(check bool) "names the segment" true
    (contains ~sub:".xlog" m)

let test_last_frame_crc_flip_is_torn () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir dir) in
  List.iter (W.append w) (sess_ops 4);
  W.close w;
  let seg = Filename.concat dir (List.hd (segment_files dir)) in
  let bytes = read_file seg in
  let b = Bytes.of_string bytes in
  (* flip the last byte: the damaged frame ends exactly at EOF *)
  Bytes.set b
    (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0xFF));
  write_file seg (Bytes.to_string b);
  let w2 = ok "reopen" (W.open_dir ~quiet:true dir) in
  Alcotest.(check bool) "classified torn" true (W.had_torn_tail w2);
  Alcotest.(check int) "one record dropped" 3
    (List.length (ok "records" (W.records w2)));
  W.close w2

let test_snapshot_and_rotation () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir ~snapshot_every:3 dir) in
  let compacted = ref [] in
  let tick r =
    W.append w r;
    compacted := !compacted @ [ r ];
    (* the thunk hands back the compacted state, like the serve
       registry does *)
    W.maybe_snapshot w (fun () -> !compacted)
  in
  List.iter tick (sess_ops 7);
  W.close w;
  let snaps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".snap")
  in
  Alcotest.(check int) "two snapshots (after op 3 and 6)" 2 (List.length snaps);
  Alcotest.(check bool) "segments retained" true (List.length (segment_files dir) >= 2);
  let w2 = ok "reopen" (W.open_dir dir) in
  let got = ok "records" (W.records w2) in
  Alcotest.(check int) "snapshot + tail covers all 7" 7 (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "same record" true (R.equal a b))
    (sess_ops 7) got;
  W.close w2

let test_snap_fault_leaves_log_intact () =
  with_dir @@ fun dir ->
  let w = ok "open" (W.open_dir ~snapshot_every:2 dir) in
  (try
     with_faults "snap:1:cancel" (fun () ->
         List.iter
           (fun r ->
             W.append w r;
             W.maybe_snapshot w (fun () -> sess_ops 2))
           (sess_ops 2))
   with _ -> ());
  W.close w;
  Alcotest.(check bool) "temp file left behind" true
    (Array.exists
       (fun n -> Filename.check_suffix n ".tmp")
       (Sys.readdir dir));
  let w2 = ok "reopen" (W.open_dir dir) in
  Alcotest.(check bool) "temp file swept" false
    (Array.exists
       (fun n -> Filename.check_suffix n ".tmp")
       (Sys.readdir dir));
  Alcotest.(check int) "log intact without the snapshot" 2
    (List.length (ok "records" (W.records w2)));
  W.close w2

(* ------------------------------------------------------------------ *)
(* Kill/resume differential through the WAL: for every engine and
   workload, a run killed by an injected fault — at a step, a round
   boundary, mid-fsync (the [wal] site) or mid-snapshot-rename (the
   [snap] site) — and recovered from its log must agree step for step
   with the uninterrupted run. *)

let diff_budget = { Chase.Variants.max_steps = 30; max_atoms = 5_000 }

type runner = {
  ename : string;
  erun :
    ?resume:Chase.Variants.engine_state ->
    ?journal:Chase.Variants.journal ->
    budget:Chase.Variants.budget ->
    Kb.t ->
    Chase.Variants.run;
}

let runners =
  [
    {
      ename = "restricted";
      erun =
        (fun ?resume ?journal ~budget kb ->
          Chase.Variants.restricted ~budget ?resume ?journal kb);
    };
    {
      ename = "frugal";
      erun =
        (fun ?resume ?journal ~budget kb ->
          Chase.Variants.frugal ~budget ?resume ?journal kb);
    };
    {
      ename = "core";
      erun =
        (fun ?resume ?journal ~budget kb ->
          Chase.Variants.core ~budget ?resume ?journal kb);
    };
    {
      ename = "core-round";
      erun =
        (fun ?resume ?journal ~budget kb ->
          Chase.Variants.core ~cadence:Chase.Variants.Every_round ~budget
            ?resume ?journal kb);
    };
  ]

let workloads =
  [
    ("transitive-closure", Zoo.Classic.transitive_closure);
    ("staircase", Zoo.Staircase.kb);
    ("elevator", Zoo.Elevator.kb);
    ("randomkb", fun () -> Zoo.Randomkb.generate ~seed:7 Zoo.Randomkb.datalog);
  ]

let same_run label (a : Chase.Variants.run) (b : Chase.Variants.run) =
  Alcotest.(check bool)
    (label ^ ": same outcome") true
    (a.Chase.Variants.outcome = b.Chase.Variants.outcome);
  Alcotest.(check int)
    (label ^ ": same rounds")
    a.Chase.Variants.rounds b.Chase.Variants.rounds;
  let da = a.Chase.Variants.derivation and db = b.Chase.Variants.derivation in
  Alcotest.(check int)
    (label ^ ": same length")
    (Chase.Derivation.length da)
    (Chase.Derivation.length db);
  List.iter2
    (fun (x : Chase.Derivation.step) (y : Chase.Derivation.step) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %d pre-instance" label x.Chase.Derivation.index)
        true
        (Atomset.equal x.Chase.Derivation.pre_instance
           y.Chase.Derivation.pre_instance);
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %d simplification" label
           x.Chase.Derivation.index)
        true
        (Subst.equal x.Chase.Derivation.simplification
           y.Chase.Derivation.simplification);
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %d instance" label x.Chase.Derivation.index)
        true
        (Atomset.equal x.Chase.Derivation.instance y.Chase.Derivation.instance))
    (Chase.Derivation.steps da)
    (Chase.Derivation.steps db)

(* resume the interrupted log in a simulated fresh process and check it
   against [reference]; recovery must succeed and the resumed run (its
   journal appending only past the durable watermark) must match. *)
let recover_and_check ~label ~reference r build dir =
  reset ();
  let kb3 = build () in
  let w2 = ok (label ^ ": reopen") (W.open_dir ~quiet:true dir) in
  if W.is_empty w2 then begin
    (* the kill beat even the header write: recovery is a fresh run *)
    let journal = W.journal w2 ~engine:r.ename ~budget:diff_budget () in
    let fresh = r.erun ~budget:diff_budget ~journal kb3 in
    W.close w2;
    same_run label reference fresh
  end
  else begin
    let recovered = ok (label ^ ": recover") (W.recover w2 kb3) in
    let journal =
      W.journal w2 ~engine:r.ename ~budget:diff_budget
        ~durable:recovered.W.r_durable ()
    in
    let resumed =
      r.erun ~budget:diff_budget ?resume:recovered.W.r_state ~journal kb3
    in
    W.close w2;
    same_run label reference resumed;
    (* recover-after-resume: the log now also replays to the finished
       run's boundary — the journal dedup did not double-append *)
    reset ();
    let kb4 = build () in
    let w3 = ok (label ^ ": re-reopen") (W.open_dir ~quiet:true dir) in
    let again = ok (label ^ ": re-recover") (W.recover w3 kb4) in
    W.close w3;
    (* the run's last round may be partial (budget/fault mid-round), so
       its boundary record never exists; every completed one must *)
    Alcotest.(check bool)
      (label ^ ": durable rounds caught up")
      true
      (let d = again.W.r_durable.W.d_rounds in
       d = resumed.Chase.Variants.rounds
       || d = resumed.Chase.Variants.rounds - 1)
  end

let wal_differential ~spec ~snapshot_every r (wname, build) =
  let label = Printf.sprintf "%s/%s[%s]" r.ename wname spec in
  reset ();
  let reference = r.erun ~budget:diff_budget (build ()) in
  reset ();
  let kb2 = build () in
  with_dir @@ fun dir ->
  (let w = ok (label ^ ": open") (W.open_dir ~snapshot_every ~quiet:true dir) in
   let journal = W.journal w ~engine:r.ename ~budget:diff_budget () in
   let (_ : Chase.Variants.run) =
     with_faults spec (fun () -> r.erun ~budget:diff_budget ~journal kb2)
   in
   (* no [W.close]: the kill left the handle behind; Sync_every already
      made every append durable *)
   ignore w);
  recover_and_check ~label ~reference r build dir

let fault_matrix =
  [
    (* mid-step, mid-round, mid-fsync, mid-snapshot-rename *)
    ("step:7:out_of_memory", 0);
    ("round:3:cancel", 0);
    ("wal:11:cancel", 0);
    ("wal:5:out_of_memory", 2);
    ("snap:1:out_of_memory", 2);
  ]

let differential_all () =
  List.iter
    (fun r ->
      List.iter
        (fun w ->
          List.iter
            (fun (spec, snapshot_every) ->
              wal_differential ~spec ~snapshot_every r w)
            fault_matrix)
        workloads)
    runners

let test_differential_jobs1 () = Par.with_jobs 1 differential_all

let test_differential_jobs4 () =
  (* the pool changes the engine loop's schedule but not the journal's
     contents: the clean round-boundary and mid-round kills on every
     workload, one mid-fsync kill through snapshots *)
  Par.with_jobs 4 (fun () ->
      List.iter
        (fun r ->
          List.iter
            (fun w ->
              wal_differential ~spec:"round:3:cancel" ~snapshot_every:0 r w;
              wal_differential ~spec:"step:7:out_of_memory" ~snapshot_every:0
                r w)
            workloads;
          wal_differential ~spec:"wal:5:cancel" ~snapshot_every:2 r
            (List.hd workloads))
        runners)

(* kill at every frame boundary and at a mid-frame byte after it: the
   byte-level version of the differential, one engine (the journal
   bytes do not depend on the engine loop, only on the derivation) *)
let test_boundary_sweep () =
  let r = List.hd runners in
  let build = Zoo.Classic.transitive_closure in
  reset ();
  let reference = r.erun ~budget:diff_budget (build ()) in
  reset ();
  let kb2 = build () in
  with_dir @@ fun dir ->
  (let w = ok "open" (W.open_dir dir) in
   let journal = W.journal w ~engine:r.ename ~budget:diff_budget () in
   let (_ : Chase.Variants.run) = r.erun ~budget:diff_budget ~journal kb2 in
   W.close w);
  let seg_name = List.hd (segment_files dir) in
  let bytes = read_file (Filename.concat dir seg_name) in
  let boundaries =
    let rec go pos acc =
      if pos >= String.length bytes then List.rev acc
      else
        match X.decode_frame ~pos bytes with
        | Ok (_, _, consumed) -> go (pos + consumed) ((pos + consumed) :: acc)
        | Error _ -> List.rev acc
    in
    go (String.length X.wal_magic) [ String.length X.wal_magic ]
  in
  List.iter
    (fun b ->
      List.iter
        (fun len ->
          if len <= String.length bytes then begin
            with_dir @@ fun dir2 ->
            write_file
              (Filename.concat dir2 seg_name)
              (String.sub bytes 0 len);
            recover_and_check
              ~label:(Printf.sprintf "cut@%d" len)
              ~reference r build dir2
          end)
        [ b; b + 5 ])
    boundaries

(* resume out of a snapshot: a budget-stopped run journaled with a
   snapshot at every round boundary, recovered (snapshot records first,
   then the log tail) and resumed with a larger budget, equals the run
   the larger budget produces from scratch *)
let test_resume_through_snapshot () =
  let r = List.nth runners 2 (* core *) in
  let build = Zoo.Staircase.kb in
  let small = { Chase.Variants.max_steps = 12; max_atoms = 5_000 } in
  let big = { Chase.Variants.max_steps = 24; max_atoms = 5_000 } in
  reset ();
  let reference = r.erun ~budget:big (build ()) in
  reset ();
  let kb2 = build () in
  with_dir @@ fun dir ->
  (let w = ok "open" (W.open_dir ~snapshot_every:1 dir) in
   let journal = W.journal w ~engine:"core" ~budget:small () in
   let (_ : Chase.Variants.run) = r.erun ~budget:small ~journal kb2 in
   W.close w);
  Alcotest.(check bool) "snapshots were written" true
    (Array.exists
       (fun n -> Filename.check_suffix n ".snap")
       (Sys.readdir dir));
  reset ();
  let kb3 = build () in
  let w = ok "reopen" (W.open_dir ~snapshot_every:1 dir) in
  let recovered = ok "recover" (W.recover w kb3) in
  Alcotest.(check bool) "a round boundary is durable" true
    (recovered.W.r_state <> None);
  let journal =
    W.journal w ~engine:"core" ~budget:big ~durable:recovered.W.r_durable ()
  in
  let resumed = r.erun ~budget:big ?resume:recovered.W.r_state ~journal kb3 in
  W.close w;
  same_run "snapshot-resume" reference resumed

let test_recover_errors () =
  with_dir @@ fun dir ->
  (* empty log *)
  (let w = ok "open" (W.open_dir dir) in
   let m = expect_error "empty recover" (W.recover w (Kb.of_lists ~facts:[] ~rules:[])) in
   Alcotest.(check bool) "names emptiness" true
     (contains ~sub:"empty" m);
   W.close w);
  (* a session log is not a chase log — recovery reads the records as
     they were at open time, so write, close and reopen *)
  (let w = ok "reopen" (W.open_dir dir) in
   W.append w (R.Sess_op "OPEN s");
   W.close w);
  let w = ok "reopen session log" (W.open_dir dir) in
  let m2 =
    expect_error "session recover"
      (W.recover w (Kb.of_lists ~facts:[] ~rules:[]))
  in
  Alcotest.(check bool) "structured, names the record" true
    (contains ~sub:"sess" m2
    || contains ~sub:"session" m2
    || contains ~sub:"header" m2);
  W.close w

(* A log written before record format 2: its [Begin] still carries the
   retired instance-epoch counter under tag 1.  Opening succeeds (the
   frames are intact); reading the header and recovering are refused
   with a structured error that names the format. *)
let test_format1_log_refused () =
  with_dir @@ fun dir ->
  let b = Buffer.create 64 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  Buffer.add_uint8 b 1;
  int 4;
  Buffer.add_string b "core";
  Buffer.add_uint8 b 0;
  Buffer.add_uint8 b 0;
  List.iter int [ 40; 5_000; 17; 99 ];
  let x =
    X.create_writer ~magic:X.wal_magic
      (Filename.concat dir (Printf.sprintf "wal-%016d.xlog" 1))
  in
  X.append x ~lsn:1 (Buffer.contents b);
  X.close_writer x;
  let w = ok "open format-1 log" (W.open_dir dir) in
  let names_format m =
    Alcotest.(check bool) ("names the format: " ^ m) true
      (contains ~sub:"format-1" m)
  in
  names_format (expect_error "peek header" (W.peek_header w));
  names_format
    (expect_error "recover" (W.recover w (Kb.of_lists ~facts:[] ~rules:[])));
  W.close w

let test_wal_metrics () =
  Obs.Metrics.reset ();
  Obs.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.enabled := false;
      Obs.Metrics.reset ())
    (fun () ->
      with_dir @@ fun dir ->
      (let w = ok "open" (W.open_dir dir) in
       List.iter (W.append w) (sess_ops 3);
       W.close w);
      Alcotest.(check bool) "appends counted" true
        (Obs.Metrics.counter_value "wal.appends" >= 3);
      Alcotest.(check bool) "fsyncs counted" true
        (Obs.Metrics.counter_value "wal.fsyncs" >= 3);
      (* tear the tail, reopen: the torn-tail counter moves *)
      let seg = Filename.concat dir (List.hd (segment_files dir)) in
      let bytes = read_file seg in
      write_file seg (String.sub bytes 0 (String.length bytes - 1));
      let w2 = ok "reopen" (W.open_dir ~quiet:true dir) in
      W.close w2;
      Alcotest.(check bool) "torn tail counted" true
        (Obs.Metrics.counter_value "wal.torn_tails" >= 1))

(* ------------------------------------------------------------------ *)
(* The serve daemon's session log: a killed daemon restarted on the
   same WAL answers ENTAIL byte-identically (DESIGN.md §16). *)

module P = Server.Protocol

let preq s = ok ("parse " ^ s) (P.parse_request s)

let frames_bytes frames = String.concat "" (List.map P.encode frames)

let serve_script =
  [
    "OPEN s";
    "LOAD s inline\np(a). q(X) :- p(X). r(X,Y) :- q(X), p(Y).";
    "CHASE s";
    "OPEN t";
    "LOAD t inline\nedge(a,b). edge(b,c). path(X,Y) :- edge(X,Y).\n\
     path(X,Z) :- path(X,Y), edge(Y,Z).";
    "CHASE t";
  ]

let entails =
  [ "ENTAIL s\n? :- r(a,a)."; "ENTAIL t\n? :- path(a,c)."; "ENTAIL t\n? :- path(c,a)." ]

let run_script lb = List.iter (fun s -> ignore (Server.Loopback.request lb (preq s))) serve_script

let entail_bytes lb =
  frames_bytes
    (List.concat_map (fun s -> Server.Loopback.request lb (preq s)) entails)

let test_serve_restart_differential () =
  reset ();
  with_dir @@ fun dir ->
  let before =
    let w = ok "open" (W.open_dir dir) in
    let lb = Server.Loopback.create ~wal:w () in
    run_script lb;
    let bytes = entail_bytes lb in
    (* kill -9: no close; Sync_every already made the ops durable *)
    ignore w;
    bytes
  in
  reset ();
  let w2 = ok "reopen" (W.open_dir ~quiet:true dir) in
  let lb2 = Server.Loopback.create ~wal:w2 () in
  let after = entail_bytes lb2 in
  Alcotest.(check string) "ENTAIL byte-identical across restart" before after;
  (* the restarted daemon keeps counting generations where the dead one
     stopped: session s was chased once before the kill *)
  let frames = Server.Loopback.request lb2 (preq "CHASE s") in
  let final = List.nth frames (List.length frames - 1) in
  Alcotest.(check bool) "generation advances past the replayed one" true
    (contains ~sub:"generation 2" final.P.payload);
  W.close w2

let test_serve_restart_with_snapshots () =
  reset ();
  with_dir @@ fun dir ->
  let before =
    let w = ok "open" (W.open_dir ~snapshot_every:2 dir) in
    let lb = Server.Loopback.create ~wal:w () in
    run_script lb;
    (* a second chase bumps s's generation to 2 pre-kill *)
    ignore (Server.Loopback.request lb (preq "CHASE s"));
    entail_bytes lb
  in
  Alcotest.(check bool) "snapshots were written" true
    (Array.exists
       (fun n -> Filename.check_suffix n ".snap")
       (Sys.readdir dir));
  reset ();
  let w2 = ok "reopen" (W.open_dir ~quiet:true ~snapshot_every:2 dir) in
  let lb2 = Server.Loopback.create ~wal:w2 () in
  let after = entail_bytes lb2 in
  Alcotest.(check string) "ENTAIL byte-identical through compaction" before
    after;
  let frames = Server.Loopback.request lb2 (preq "CHASE s") in
  let final = List.nth frames (List.length frames - 1) in
  Alcotest.(check bool) "generation pinned by the snapshot" true
    (contains ~sub:"generation 3" final.P.payload);
  W.close w2

let test_serve_close_forgotten_session () =
  reset ();
  with_dir @@ fun dir ->
  (let w = ok "open" (W.open_dir dir) in
   let lb = Server.Loopback.create ~wal:w () in
   run_script lb;
   ignore (Server.Loopback.request lb (preq "CLOSE t")));
  reset ();
  let w2 = ok "reopen" (W.open_dir ~quiet:true dir) in
  let lb2 = Server.Loopback.create ~wal:w2 () in
  let frames = Server.Loopback.request lb2 (preq "ENTAIL t\n? :- path(a,c).") in
  let final = List.nth frames (List.length frames - 1) in
  Alcotest.(check bool) "closed session stays closed" true
    (final.P.kind = P.K_err);
  W.close w2

let suites =
  [
    ( "storage.codec",
      [
        tc "crc32 known vectors" test_crc_vector;
        tc "record encode/decode round trips" test_record_roundtrip;
        tc "record strict prefixes are errors" test_record_strict_prefixes_error;
        tc "frame round trip, prefixes, flips" test_frame_roundtrip_and_flips;
      ] );
    ( "storage.wal",
      [
        tc "empty directory" test_empty_dir;
        tc "append and reopen" test_append_reopen;
        tc "append after close raises" test_append_after_close_raises;
        tc "torn tail truncated with warning" test_torn_tail_truncated;
        tc "every byte prefix opens to a record prefix" test_prefix_sweep;
        tc "mid-file corruption refused" test_midfile_corruption_refused;
        tc "crc flip at EOF is a torn tail" test_last_frame_crc_flip_is_torn;
        tc "snapshot cadence and segment rotation" test_snapshot_and_rotation;
        tc "snap fault leaves the log intact" test_snap_fault_leaves_log_intact;
        tc "wal metrics move" test_wal_metrics;
      ] );
    ( "storage.recovery",
      [
        tc "kill/resume differential, jobs=1" test_differential_jobs1;
        tc "kill/resume differential, jobs=4" test_differential_jobs4;
        tc "kill at every frame boundary" test_boundary_sweep;
        tc "resume through a snapshot" test_resume_through_snapshot;
        tc "recover error taxonomy" test_recover_errors;
        tc "format-1 log refused" test_format1_log_refused;
      ] );
    ( "storage.serve",
      [
        tc "restart answers ENTAIL byte-identically"
          test_serve_restart_differential;
        tc "restart through snapshot compaction"
          test_serve_restart_with_snapshots;
        tc "CLOSE is durable too" test_serve_close_forgotten_session;
      ] );
  ]
