(* Tests for lib/server (DESIGN.md §15): the wire-protocol codec (unit
   round trips, typed rejection of malformed bytes, fuzz), the request
   grammar's parse∘print law, the session lifecycle driven through the
   in-process loopback client (byte-split equivalence, protocol
   violations, shutdown), the differential law — session answers are
   byte-identical to the batch evaluation path, across engines × jobs —
   fault injection mid-chase, and the graceful-drain path over a real
   Unix socket.  Only the last test touches a socket; everything else
   is pure logic against {!Server.Loopback}. *)

open Syntax
module P = Server.Protocol
module L = Server.Loopback
module Q = Server.Queryeval

let tc name f = Alcotest.test_case name `Quick f
let fr kind payload = { P.kind; payload }

let frame_t : P.frame Alcotest.testable =
  Alcotest.testable
    (fun ppf f -> Fmt.pf ppf "%s %S" (P.kind_name f.P.kind) f.P.payload)
    ( = )

let request_t : P.request Alcotest.testable =
  Alcotest.testable (fun ppf r -> Fmt.string ppf (P.print_request r)) ( = )

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Codec units                                                         *)

let all_kinds =
  [ P.K_hello; P.K_req; P.K_ok; P.K_err; P.K_data; P.K_event; P.K_bye ]

let codec_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun payload ->
          let f = fr kind payload in
          let s = P.encode f in
          match P.decode s with
          | Ok (g, n) ->
              Alcotest.check frame_t "round trip" f g;
              Alcotest.(check int) "consumed" (String.length s) n
          | Error e -> Alcotest.failf "decode: %a" P.pp_error e)
        [ ""; "x"; "two\nlines\n"; "bin \x00\xff bytes"; String.make 4096 'a' ])
    all_kinds

let codec_kind_names () =
  List.iter
    (fun k ->
      match P.kind_of_name (P.kind_name k) with
      | Some k' -> Alcotest.(check bool) (P.kind_name k) true (k = k')
      | None -> Alcotest.failf "kind %s does not round trip" (P.kind_name k))
    all_kinds;
  Alcotest.(check bool) "unknown kind" true (P.kind_of_name "nope" = None)

let codec_hello () =
  match P.decode (P.encode P.hello_frame) with
  | Ok (f, _) -> Alcotest.(check bool) "hello" true (f.P.kind = P.K_hello)
  | Error e -> Alcotest.failf "hello: %a" P.pp_error e

(* each typed error is reachable, and [Truncated] exactly on strict
   prefixes of well-formed frames *)
let codec_errors () =
  let expect name input check_err =
    match P.decode input with
    | Ok _ -> Alcotest.failf "%s: unexpectedly decoded" name
    | Error e ->
        if not (check_err e) then
          Alcotest.failf "%s: wrong error %a" name P.pp_error e
  in
  expect "bad magic" "borechase/1 ok 0\n\n" (function
    | P.Bad_magic _ -> true
    | _ -> false);
  expect "bad magic mid" "corechasX/1 ok 0\n\n" (function
    | P.Bad_magic _ -> true
    | _ -> false);
  expect "bad version" "corechase/9 ok 0\n\n" (function
    | P.Bad_version _ -> true
    | _ -> false);
  expect "unparseable version" "corechase/x ok 0\n\n" (function
    | P.Bad_version _ -> true
    | _ -> false);
  expect "bad kind" "corechase/1 frob 0\n\n" (function
    | P.Bad_kind _ -> true
    | _ -> false);
  expect "bad length" "corechase/1 ok abc\n\n" (function
    | P.Bad_length _ -> true
    | _ -> false);
  expect "oversized"
    (Fmt.str "corechase/1 ok %d\n" (P.max_payload + 1))
    (function P.Oversized n -> n = P.max_payload + 1 | _ -> false);
  expect "bad terminator" "corechase/1 ok 2\nabX" (function
    | P.Bad_terminator -> true
    | _ -> false);
  (* every strict prefix of a well-formed frame is Truncated *)
  List.iter
    (fun f ->
      let s = P.encode f in
      for i = 0 to String.length s - 1 do
        expect
          (Fmt.str "prefix %d" i)
          (String.sub s 0 i)
          (function P.Truncated -> true | _ -> false)
      done)
    [ fr P.K_ok "pong"; fr P.K_req "ENTAIL s\n? :- p(a)."; fr P.K_bye "" ]

let codec_encode_oversized () =
  match P.encode (fr P.K_data (String.make (P.max_payload + 1) 'x')) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted an oversized payload"

let codec_decode_all () =
  let fs = [ fr P.K_hello "hi"; fr P.K_data "a\nb"; fr P.K_ok "done" ] in
  let whole = String.concat "" (List.map P.encode fs) in
  (match P.decode_all whole with
  | Ok (gs, n) ->
      Alcotest.(check (list frame_t)) "all frames" fs gs;
      Alcotest.(check int) "all consumed" (String.length whole) n
  | Error (e, _) -> Alcotest.failf "decode_all: %a" P.pp_error e);
  (* a trailing partial frame is left unconsumed, not an error *)
  let partial = whole ^ "corechase/1 ok" in
  (match P.decode_all partial with
  | Ok (gs, n) ->
      Alcotest.(check int) "still three" 3 (List.length gs);
      Alcotest.(check int) "partial unconsumed" (String.length whole) n
  | Error (e, _) -> Alcotest.failf "partial: %a" P.pp_error e);
  (* a malformed frame reports the bytes consumed before it *)
  let broken = P.encode (fr P.K_ok "fine") ^ "garbage" in
  match P.decode_all broken with
  | Ok _ -> Alcotest.fail "decode_all accepted garbage"
  | Error (_, n) ->
      Alcotest.(check int) "consumed before error"
        (String.length (P.encode (fr P.K_ok "fine")))
        n

let has_suffix ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

let codec_clamp () =
  let small = fr P.K_ok "fine" in
  Alcotest.(check (list frame_t)) "small untouched" [ small ] (P.clamp small);
  let big = String.make (P.max_payload + 5) 'd' in
  let fs = P.clamp (fr P.K_data big) in
  Alcotest.(check int) "data splits" 2 (List.length fs);
  Alcotest.(check string) "no data bytes lost" big
    (String.concat "" (List.map (fun f -> f.P.payload) fs));
  List.iter (fun f -> ignore (P.encode f)) fs;
  match P.clamp (fr P.K_err big) with
  | [ f ] ->
      Alcotest.(check bool) "err kind kept" true (f.P.kind = P.K_err);
      Alcotest.(check bool) "fits" true
        (String.length f.P.payload <= P.max_payload);
      Alcotest.(check bool) "marked" true
        (has_suffix ~suffix:" [truncated]" f.P.payload);
      ignore (P.encode f)
  | fs -> Alcotest.failf "err clamp: %d frames" (List.length fs)

let codec_data_frames () =
  let short = P.data_frames "hello" in
  Alcotest.(check (list frame_t)) "short" [ fr P.K_data "hello" ] short;
  let big = String.make (P.max_payload + 5) 'z' in
  let fs = P.data_frames big in
  Alcotest.(check int) "split in two" 2 (List.length fs);
  Alcotest.(check string) "no bytes lost" big
    (String.concat "" (List.map (fun f -> f.P.payload) fs));
  List.iter
    (fun f ->
      Alcotest.(check bool) "each fits" true
        (String.length f.P.payload <= P.max_payload))
    fs

let all_err_codes =
  [
    P.Bad_request; P.Unknown_session; P.Session_exists; P.No_kb; P.Busy;
    P.Chase_stopped; P.Io_error; P.Shutting_down; P.Protocol_violation;
  ]

let codec_err_frames () =
  List.iter
    (fun c ->
      let name = P.err_code_name c in
      (match P.err_code_of_name name with
      | Some c' -> Alcotest.(check bool) name true (c = c')
      | None -> Alcotest.failf "err code %s does not round trip" name);
      let f = P.err_frame c "something went wrong: badly" in
      Alcotest.(check bool) "err kind" true (f.P.kind = P.K_err);
      match P.parse_err f.P.payload with
      | Some (c', msg) ->
          Alcotest.(check bool) "code" true (c = c');
          Alcotest.(check string) "msg" "something went wrong: badly" msg
      | None -> Alcotest.failf "parse_err failed on %S" f.P.payload)
    all_err_codes;
  Alcotest.(check bool) "unknown code" true (P.parse_err "nope: hi" = None)

(* ------------------------------------------------------------------ *)
(* Request grammar                                                     *)

let request_fixtures =
  [
    P.Open "s1";
    P.Load { session = "kb"; source = P.From_path "/tmp/family.dlgp" };
    P.Load { session = "kb"; source = P.From_text "p(a).\nq(X) :- p(X).\n" };
    P.Chase { session = "kb"; variant = Chase.Core; steps = 500; atoms = 20000 };
    P.Chase { session = "x.y-z_2"; variant = Chase.Restricted; steps = 3; atoms = 7 };
    P.Chase { session = "kb"; variant = Chase.Oblivious; steps = 1; atoms = 1 };
    P.Entail { session = "kb"; query = "? :- p(a)." };
    P.Entail { session = "kb"; query = "?(X) :- q(X).\n? :- p(a)." };
    P.Analyze "kb";
    P.Stats "kb";
    P.Close "kb";
    P.Ping;
    P.Metrics;
    P.Sessions;
    P.Shutdown;
  ]

let request_roundtrip () =
  List.iter
    (fun r ->
      match P.parse_request (P.print_request r) with
      | Ok r' -> Alcotest.check request_t (P.print_request r) r r'
      | Error e -> Alcotest.failf "%s: %s" (P.print_request r) e)
    request_fixtures

let request_defaults_and_case () =
  (match P.parse_request "chase kb" with
  | Ok (P.Chase { variant = Chase.Core; steps = 500; atoms = 20000; _ }) -> ()
  | Ok r -> Alcotest.failf "wrong defaults: %s" (P.print_request r)
  | Error e -> Alcotest.fail e);
  match P.parse_request "ping" with
  | Ok P.Ping -> ()
  | _ -> Alcotest.fail "lowercase ping rejected"

let request_rejections () =
  let rejected s =
    match P.parse_request s with
    | Error _ -> ()
    | Ok r ->
        Alcotest.failf "%S unexpectedly parsed as %s" s (P.print_request r)
  in
  List.iter rejected
    [
      "";
      "FROB x";
      "OPEN";
      "OPEN two words";
      "OPEN bad!name";
      "PING extra";
      "CHASE kb steps=0";
      "CHASE kb steps=-3";
      "CHASE kb steps=many";
      "CHASE kb warp=9";
      "CHASE kb variant=warp";
      "CHASE kb stray";
      "CHASE kb\nbody";
      "LOAD kb";
      "LOAD kb path";
      "LOAD kb inline";
      "LOAD kb inline trailing\np(a).";
      "LOAD kb ftp server";
      "ENTAIL kb";
      "ENTAIL kb\n   ";
      "ENTAIL\n? :- p(a).";
    ]

let session_names () =
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) n expect (P.session_name_ok n))
    [
      ("a", true); ("A-b_c.9", true); ("", false); ("a b", false);
      ("a/b", false); ("caf\xc3\xa9", false);
    ]

(* ------------------------------------------------------------------ *)
(* Fuzz: decode never raises, whatever the bytes                       *)

let fuzz_random_bytes () =
  let rng = Random.State.make [| 0x5eed; Hashtbl.hash "server.fuzz" |] in
  for _ = 1 to 1000 do
    let n = Random.State.int rng 64 in
    let s = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    match P.decode s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "decode raised %s on %S" (Printexc.to_string e) s
  done

let fuzz_mutated_frames () =
  let rng = Random.State.make [| 0x5eed; Hashtbl.hash "server.mutate" |] in
  let base = P.encode (fr P.K_req "CHASE kb variant=core steps=9 atoms=99") in
  for _ = 1 to 1000 do
    let b = Bytes.of_string base in
    let i = Random.State.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Random.State.int rng 256));
    let s = Bytes.to_string b in
    match P.decode s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "decode raised %s on %S" (Printexc.to_string e) s
  done;
  (* raw loopback ingestion of mutated bytes never raises either *)
  for _ = 1 to 100 do
    let b = Bytes.of_string base in
    let i = Random.State.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Random.State.int rng 256));
    let l = L.create () in
    ignore (L.raw l (Bytes.to_string b))
  done

(* ------------------------------------------------------------------ *)
(* Loopback lifecycle                                                  *)

(* a terminating (datalog) KB: reach is the transitive closure *)
let chain_kb =
  "p(a).\n\
   edge(a, b).\n\
   edge(b, c).\n\
   [r-base] reach(X, Y) :- edge(X, Y).\n\
   [r-step] reach(X, Z) :- reach(X, Y), edge(Y, Z).\n"

(* a non-terminating KB (every person gains a fresh parent) *)
let family_kb =
  "parent(alice, bob).\n\
   parent(bob, carol).\n\
   [anc-base] ancestor(X, Y) :- parent(X, Y).\n\
   [anc-rec] ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).\n\
   [people] person(X) :- parent(X, Y).\n\
   [progenitor] parent(Z, X) :- person(X).\n"

(* a diverging chain: one fresh atom per round, forever *)
let diverge_kb = "r(a, b).\n[chain] r(Y, Z) :- r(X, Y).\n"

let req l s =
  match P.parse_request s with
  | Ok r -> L.request l r
  | Error e -> Alcotest.failf "parse_request %S: %s" s e

let final frames =
  match List.rev frames with
  | f :: _ -> f
  | [] -> Alcotest.fail "empty response"

let data_lines frames =
  List.filter_map
    (fun f -> if f.P.kind = P.K_data then Some f.P.payload else None)
    frames

let expect_ok name frames =
  match final frames with
  | { P.kind = P.K_ok; payload } -> payload
  | { P.kind = P.K_err; payload } -> Alcotest.failf "%s: err %s" name payload
  | f -> Alcotest.failf "%s: final %s" name (P.kind_name f.P.kind)

let expect_err name code frames =
  match final frames with
  | { P.kind = P.K_err; payload } -> (
      match P.parse_err payload with
      | Some (c, msg) when c = code -> msg
      | Some (c, _) ->
          Alcotest.failf "%s: expected %s, got %s" name (P.err_code_name code)
            (P.err_code_name c)
      | None -> Alcotest.failf "%s: unparseable err %S" name payload)
  | f -> Alcotest.failf "%s: final %s not err" name (P.kind_name f.P.kind)

let loopback_lifecycle () =
  let l = L.create () in
  Alcotest.(check bool) "greeting" true ((L.greeting l).P.kind = P.K_hello);
  Alcotest.(check string) "ping" "pong" (expect_ok "ping" (req l "PING"));
  Alcotest.(check string) "open" "opened s" (expect_ok "open" (req l "OPEN s"));
  ignore (expect_err "reopen" P.Session_exists (req l "OPEN s"));
  ignore (expect_err "no kb yet" P.No_kb (req l "ENTAIL s\n? :- p(a)."));
  ignore (expect_err "no kb to chase" P.No_kb (req l "CHASE s"));
  let loaded = expect_ok "load" (req l ("LOAD s inline\n" ^ chain_kb)) in
  Alcotest.(check bool) "load summary" true
    (contains ~sub:"loaded s: 3 facts, 2 rules" loaded);
  ignore
    (expect_err "entail before chase" P.No_kb (req l "ENTAIL s\n? :- p(a)."));
  let chase = req l "CHASE s variant=core steps=100 atoms=20000" in
  let ok = expect_ok "chase" chase in
  Alcotest.(check bool) "chase generation" true
    (contains ~sub:"chased s generation 1: fixpoint" ok);
  Alcotest.(check bool) "round events streamed" true
    (List.exists (fun f -> f.P.kind = P.K_event) chase);
  (* entailed / not-entailed / answers, all against the one snapshot *)
  Alcotest.(check string) "entailed" "ok"
    (expect_ok "entail yes" (req l "ENTAIL s\n? :- reach(a, c)."));
  Alcotest.(check string) "not entailed" "not-entailed"
    (expect_ok "entail no" (req l "ENTAIL s\n? :- reach(c, a)."));
  let ans = req l "ENTAIL s\n?(X) :- reach(a, X)." in
  Alcotest.(check string) "answers severity" "ok" (expect_ok "answers" ans);
  (match data_lines ans with
  | [ line ] ->
      Alcotest.(check bool) "two certain answers" true
        (contains ~sub:"2 certain answer(s): (b) (c)" line)
  | ls -> Alcotest.failf "answers: %d data lines" (List.length ls));
  ignore
    (expect_err "bad query" P.Bad_request (req l "ENTAIL s\nnot dlgp ((("));
  ignore
    (expect_err "no query" P.Bad_request (req l "ENTAIL s\np(a)."));
  (* analyze / stats / sessions *)
  let an = req l "ANALYZE s" in
  ignore (expect_ok "analyze" an);
  Alcotest.(check bool) "analyze routes" true
    (List.exists (contains ~sub:"route:") (data_lines an));
  let st = req l "STATS s" in
  ignore (expect_ok "stats" st);
  Alcotest.(check bool) "stats generation" true
    (List.exists (contains ~sub:"generation: 1") (data_lines st));
  let ss = req l "SESSIONS" in
  Alcotest.(check string) "one session" "1 session(s)"
    (expect_ok "sessions" ss);
  Alcotest.(check bool) "sessions list" true
    (List.exists (contains ~sub:"s generation=1") (data_lines ss));
  (* a second chase stamps generation 2 *)
  let ok2 = expect_ok "rechase" (req l "CHASE s steps=100") in
  Alcotest.(check bool) "generation 2" true
    (contains ~sub:"generation 2" ok2);
  (* a reload invalidates the snapshot *)
  ignore (expect_ok "reload" (req l ("LOAD s inline\n" ^ chain_kb)));
  ignore
    (expect_err "snapshot gone" P.No_kb (req l "ENTAIL s\n? :- p(a)."));
  Alcotest.(check string) "close" "closed s" (expect_ok "close" (req l "CLOSE s"));
  ignore (expect_err "gone" P.Unknown_session (req l "STATS s"));
  ignore (expect_err "load gone" P.Unknown_session (req l "LOAD s path x"));
  ignore (expect_ok "metrics" (req l "METRICS"))

let loopback_load_path_missing () =
  let l = L.create () in
  ignore (req l "OPEN s");
  ignore
    (expect_err "missing file" P.Io_error
       (req l "LOAD s path /nonexistent/kb.dlgp"))

(* the byte-level machine answers identically however the input is
   split — one call with the whole script vs one call per byte *)
let raw_script =
  String.concat ""
    (List.map P.encode
       [
         fr P.K_req "PING";
         fr P.K_req "OPEN s";
         fr P.K_req ("LOAD s inline\n" ^ chain_kb);
         fr P.K_req "CHASE s variant=restricted steps=50 atoms=1000";
         fr P.K_req "ENTAIL s\n? :- reach(a, c).";
         fr P.K_req "SHUTDOWN";
       ])

let raw_byte_split_equivalence () =
  let whole =
    let l = L.create () in
    L.raw l raw_script
  in
  let split =
    let l = L.create () in
    let b = Buffer.create 1024 in
    String.iter
      (fun c -> Buffer.add_string b (L.raw l (String.make 1 c)))
      raw_script;
    Buffer.contents b
  in
  Alcotest.(check string) "byte-split equivalence" whole split;
  (* the whole-script output is itself well-formed frames ending in bye *)
  match P.decode_all whole with
  | Ok (fs, n) ->
      Alcotest.(check int) "output fully framed" (String.length whole) n;
      (match fs with
      | { P.kind = P.K_hello; _ } :: _ -> ()
      | _ -> Alcotest.fail "no greeting first");
      (match final fs with
      | { P.kind = P.K_bye; _ } -> ()
      | f -> Alcotest.failf "no bye last: %s" (P.kind_name f.P.kind))
  | Error (e, _) -> Alcotest.failf "output malformed: %a" P.pp_error e

let raw_violation_closes () =
  let l = L.create () in
  let out = L.raw l "garbage bytes, no magic\n" in
  (match P.decode_all out with
  | Ok (fs, _) ->
      let kinds = List.map (fun f -> f.P.kind) fs in
      Alcotest.(check bool) "hello, err, bye" true
        (kinds = [ P.K_hello; P.K_err; P.K_bye ]);
      List.iter
        (fun f ->
          if f.P.kind = P.K_err then
            match P.parse_err f.P.payload with
            | Some (P.Protocol_violation, _) -> ()
            | _ -> Alcotest.failf "not protocol-error: %S" f.P.payload)
        fs
  | Error (e, _) -> Alcotest.failf "close-out malformed: %a" P.pp_error e);
  Alcotest.(check bool) "closed" true (L.closed l);
  Alcotest.(check string) "input after close-out ignored" ""
    (L.raw l (P.encode (fr P.K_req "PING")))

let raw_non_req_kind_violates () =
  let l = L.create () in
  let out = L.raw l (P.encode (fr P.K_data "client cannot send data")) in
  Alcotest.(check bool) "closed on non-req" true (L.closed l);
  Alcotest.(check bool) "err in close-out" true
    (contains ~sub:"protocol-error" out)

let raw_parse_error_keeps_connection () =
  let l = L.create () in
  let out = L.raw l (P.encode (fr P.K_req "FROB x")) in
  Alcotest.(check bool) "bad-request answered" true
    (contains ~sub:"bad-request" out);
  Alcotest.(check bool) "still open" false (L.closed l);
  let out2 = L.raw l (P.encode (fr P.K_req "PING")) in
  Alcotest.(check bool) "still answering" true (contains ~sub:"pong" out2)

(* an oversized rendered response used to raise [Invalid_argument]
   inside [encode] on the server's push path; now [data] payloads split
   across frames and single-frame kinds truncate in place *)
let raw_oversized_responses_split () =
  let l = L.create () in
  (* a session name just long enough that "opened <name>" and the
     SESSIONS listing both exceed max_payload *)
  let name = String.make (P.max_payload - 5) 'n' in
  let out = L.raw l (P.encode (fr P.K_req ("OPEN " ^ name))) in
  (match P.decode_all out with
  | Ok (fs, _) -> (
      match final fs with
      | { P.kind = P.K_ok; payload } ->
          Alcotest.(check bool) "ok truncated in place" true
            (String.length payload <= P.max_payload
            && has_suffix ~suffix:" [truncated]" payload)
      | f -> Alcotest.failf "open final: %s" (P.kind_name f.P.kind))
  | Error (e, _) -> Alcotest.failf "open response malformed: %a" P.pp_error e);
  let out2 = L.raw l (P.encode (fr P.K_req "SESSIONS")) in
  match P.decode_all out2 with
  | Ok (fs, _) ->
      let datas =
        List.filter_map
          (fun f -> if f.P.kind = P.K_data then Some f.P.payload else None)
          fs
      in
      Alcotest.(check bool) "listing split across data frames" true
        (List.length datas >= 2);
      Alcotest.(check bool) "no listing bytes lost" true
        (contains ~sub:name (String.concat "" datas));
      (match final fs with
      | { P.kind = P.K_ok; _ } -> ()
      | f -> Alcotest.failf "sessions final: %s" (P.kind_name f.P.kind))
  | Error (e, _) ->
      Alcotest.failf "sessions response malformed: %a" P.pp_error e

let raw_shutdown_says_bye () =
  let l = L.create () in
  let out = L.raw l (P.encode (fr P.K_req "SHUTDOWN")) in
  Alcotest.(check bool) "ok then bye" true
    (contains ~sub:"shutting down" out);
  Alcotest.(check bool) "closed" true (L.closed l)

(* ------------------------------------------------------------------ *)
(* Differential: session answers ≡ batch evaluation, byte for byte     *)

let budget = { Chase.Variants.max_steps = 100; max_atoms = 20_000 }

(* what the batch CLI prints for this ENTAIL body: same renderer
   (Queryeval), but evaluated by the every-element reference scan
   ([Reference.Entail_ref]), not by the snapshot functions the session
   and the CLI share — otherwise the law would compare one function
   with itself *)
let batch_lines ~variant kb qtext =
  match Dlgp.parse_string qtext with
  | Error e -> Alcotest.failf "query fixture: %a" Dlgp.pp_error e
  | Ok qdoc ->
      let cl =
        match qdoc.Dlgp.constraints with
        | [] -> []
        | constraints ->
            [
              fst
                (Q.constraints_line
                   (Reference.Entail_ref.inconsistent ~budget ~constraints kb));
            ]
      in
      cl
      @ List.map
          (fun q ->
            if Kb.Query.is_boolean q then
              fst
                (Q.verdict_line q
                   (Reference.Entail_ref.decide ~variant ~budget kb q))
            else
              fst
                (Q.answers_line q
                   (Reference.Entail_ref.certain_answers ~variant ~budget kb q)))
          qdoc.Dlgp.queries

let differential_queries =
  [
    (* terminating KB: entailed, refuted, complete answers, multi-query *)
    (chain_kb, "? :- reach(a, c).");
    (chain_kb, "? :- reach(c, a).");
    (chain_kb, "?(X) :- reach(a, X).");
    (chain_kb, "? :- p(a).\n?(Y) :- edge(a, Y).");
    (chain_kb, "! :- p(X).\n? :- reach(a, b).");
    (* diverging KB: budget-stopped verdicts and sound answers *)
    (family_kb, "?(X) :- ancestor(alice, X).");
    (family_kb, "? :- ancestor(alice, carol).");
    (family_kb, "? :- ancestor(carol, alice).");
    (family_kb, "! :- parent(X, X).\n? :- ancestor(alice, bob).");
    (* a constraint and the query with its body: the same verdict *)
    (family_kb, "! :- parent(X, X).\n? :- parent(X, X).");
  ]

let differential ~vname ~variant ~jobs () =
  Corechase.Par.with_jobs jobs @@ fun () ->
  let l = L.create () in
  ignore (expect_ok "open" (req l "OPEN d"));
  List.iter
    (fun (kb_text, qtext) ->
      ignore (expect_ok "load" (req l ("LOAD d inline\n" ^ kb_text)));
      ignore
        (expect_ok "chase"
           (req l (Fmt.str "CHASE d variant=%s steps=100 atoms=20000" vname)));
      let frames = req l ("ENTAIL d\n" ^ qtext) in
      (match final frames with
      | { P.kind = P.K_ok; _ } -> ()
      | f -> Alcotest.failf "entail final: %s" (P.kind_name f.P.kind));
      let kb =
        match Dlgp.parse_string kb_text with
        | Ok doc -> Dlgp.kb_of_document doc
        | Error e -> Alcotest.failf "kb fixture: %a" Dlgp.pp_error e
      in
      Alcotest.(check (list string))
        (Fmt.str "%s jobs=%d %S" vname jobs qtext)
        (batch_lines ~variant kb qtext)
        (data_lines frames))
    differential_queries

(* severity of the ok payload matches the worst line, i.e. the CLI exit
   code the same evaluation would produce *)
let differential_severity () =
  let l = L.create () in
  ignore (req l "OPEN d");
  ignore (req l ("LOAD d inline\n" ^ chain_kb));
  ignore (req l "CHASE d steps=100");
  Alcotest.(check string) "fixpoint refutation is definite" "not-entailed"
    (expect_ok "no" (req l "ENTAIL d\n? :- reach(c, a).\n? :- reach(a, b)."));
  ignore (req l ("LOAD d inline\n" ^ family_kb));
  ignore (req l "CHASE d steps=100");
  Alcotest.(check string) "budget-stopped answers are sound only" "stopped"
    (expect_ok "sound" (req l "ENTAIL d\n?(X) :- ancestor(alice, X)."))

(* ------------------------------------------------------------------ *)
(* Fault injection: a killed chase leaves a live session               *)

let with_faults spec f =
  Resilience.Fault.set_spec spec;
  Fun.protect ~finally:Resilience.Fault.clear f

let fault_mid_chase () =
  let l = L.create () in
  ignore (expect_ok "open a" (req l "OPEN a"));
  ignore (expect_ok "load a" (req l ("LOAD a inline\n" ^ family_kb)));
  ignore (expect_ok "open b" (req l "OPEN b"));
  ignore (expect_ok "load b" (req l ("LOAD b inline\n" ^ chain_kb)));
  (* the injected OOM stops the chase; the session answers with a
     structured chase-stopped err frame instead of dying *)
  let msg =
    with_faults "step:2:out_of_memory" (fun () ->
        expect_err "faulted chase" P.Chase_stopped
          (req l "CHASE a variant=restricted steps=100"))
  in
  Alcotest.(check bool) "structured message" true
    (contains ~sub:"keeps generation" msg);
  (* the other session is untouched: it chases and answers *)
  ignore (expect_ok "chase b" (req l "CHASE b steps=100"));
  Alcotest.(check string) "b answers" "ok"
    (expect_ok "entail b" (req l "ENTAIL b\n? :- reach(a, c)."));
  (* the faulted session still serves STATS and ENTAIL from the
     snapshot it stamped before stopping *)
  let st = req l "STATS a" in
  ignore (expect_ok "stats a" st);
  Alcotest.(check bool) "a kept a snapshot" true
    (List.exists (contains ~sub:"out_of_memory") (data_lines st));
  ignore (expect_ok "a still answers" (req l "ENTAIL a\n? :- parent(alice, bob).") );
  (* and a clean re-chase recovers it fully *)
  ignore (expect_ok "rechase a" (req l "CHASE a steps=100"));
  Alcotest.(check string) "a recovered" "ok"
    (expect_ok "entail a" (req l "ENTAIL a\n? :- ancestor(alice, carol)."))

(* ------------------------------------------------------------------ *)
(* Drain over a real socket: SIGALRM cancels the in-flight chase       *)

let rec retry_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let sock_reader fd =
  let buf = ref "" in
  let chunk = Bytes.create 4096 in
  let rec next () =
    match P.decode !buf with
    | Ok (f, used) ->
        buf := String.sub !buf used (String.length !buf - used);
        Some f
    | Error P.Truncated ->
        let n = retry_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) in
        if n = 0 then None
        else begin
          buf := !buf ^ Bytes.sub_string chunk 0 n;
          next ()
        end
    | Error e -> Alcotest.failf "client decode: %a" P.pp_error e
  in
  next

(* Spawn a real daemon on a fresh Unix socket path — pre-seeded with a
   genuinely stale socket file (bound once, closed), which [serve] must
   probe, find dead, and reclaim — run [f sock], then join the server
   domain and check the unlink cleanup.  On a failing [f] the finally
   forces a zero-second drain so the join cannot hang the test run. *)
let with_server ?(drain = 5) f =
  let sock = Filename.temp_file "corechase-serve" ".sock" in
  Sys.remove sock;
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX sock);
  Unix.listen stale 1;
  Unix.close stale;
  let ready = sock ^ ".ready" in
  let cfg =
    {
      Server.endpoints = [ Server.Unix_sock sock ];
      ready_file = Some ready;
      quiet = true;
      drain_timeout = drain;
      wal = None;
    }
  in
  let srv = Domain.spawn (fun () -> Server.serve cfg) in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "server came up" true (Sys.file_exists ready);
  Fun.protect
    ~finally:(fun () ->
      Server.request_shutdown ~drain:0 ();
      match Domain.join srv with
      | Ok () -> ()
      | Error e -> Alcotest.failf "serve: %s" e)
    (fun () -> f sock);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
  Alcotest.(check bool) "ready file removed" false (Sys.file_exists ready)

let sock_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let sock_send_raw fd s =
  let b = Bytes.of_string s in
  ignore (retry_eintr (fun () -> Unix.write fd b 0 (Bytes.length b)))

let sock_send fd s = sock_send_raw fd (P.encode (fr P.K_req s))

let expect_kind next name k =
  match next () with
  | Some f when f.P.kind = k -> f
  | Some f -> Alcotest.failf "%s: got %s" name (P.kind_name f.P.kind)
  | None -> Alcotest.failf "%s: eof" name

let drain_cancels_in_flight_chase () =
  with_server ~drain:30 (* the test requests its own 1 s drain *)
  @@ fun sock ->
  let fd = sock_connect sock in
  let next = sock_reader fd in
  ignore (expect_kind next "hello" P.K_hello);
  sock_send fd "OPEN d";
  ignore (expect_kind next "opened" P.K_ok);
  sock_send fd ("LOAD d inline\n" ^ diverge_kb);
  ignore (expect_kind next "loaded" P.K_ok);
  (* a chase that cannot finish on its own inside this test *)
  sock_send fd "CHASE d variant=restricted steps=10000000 atoms=100000000";
  ignore (expect_kind next "first round streamed" P.K_event);
  (* the chase is in flight on the server loop; request a 1 s drain *)
  Server.request_shutdown ~drain:1 ();
  let saw_stopped = ref false and saw_bye = ref false in
  let rec collect () =
    match next () with
    | Some { P.kind = P.K_event; _ } -> collect ()
    | Some { P.kind = P.K_err; payload } ->
        (match P.parse_err payload with
        | Some (P.Chase_stopped, msg) ->
            Alcotest.(check bool) "cancelled outcome" true
              (contains ~sub:"cancelled" msg);
            saw_stopped := true
        | _ -> Alcotest.failf "unexpected err: %S" payload);
        collect ()
    | Some { P.kind = P.K_bye; _ } ->
        saw_bye := true;
        collect ()
    | Some f -> Alcotest.failf "unexpected %s" (P.kind_name f.P.kind)
    | None -> ()
  in
  collect ();
  Alcotest.(check bool) "chase answered chase-stopped" true !saw_stopped;
  Alcotest.(check bool) "server said bye" true !saw_bye;
  Unix.close fd

(* the loopback proves the state machine; this drives the daemon path:
   a well-formed frame of the wrong kind closes that one connection
   with err+bye (dropping anything pipelined after it) and must NOT
   take the select loop down — it used to crash the whole daemon *)
let daemon_rejects_non_req_frame () =
  with_server @@ fun sock ->
  let fd = sock_connect sock in
  let next = sock_reader fd in
  ignore (expect_kind next "hello" P.K_hello);
  sock_send_raw fd (P.encode (fr P.K_ok "") ^ P.encode (fr P.K_req "PING"));
  let e = expect_kind next "violation" P.K_err in
  (match P.parse_err e.P.payload with
  | Some (P.Protocol_violation, _) -> ()
  | _ -> Alcotest.failf "not protocol-error: %S" e.P.payload);
  ignore (expect_kind next "bye" P.K_bye);
  Alcotest.(check bool) "conn closed, pipelined PING dropped" true
    (next () = None);
  Unix.close fd;
  (* the daemon survived: a fresh connection still answers *)
  let fd2 = sock_connect sock in
  let next2 = sock_reader fd2 in
  ignore (expect_kind next2 "hello again" P.K_hello);
  sock_send fd2 "PING";
  Alcotest.(check string) "pong" "pong"
    (expect_kind next2 "pong" P.K_ok).P.payload;
  sock_send fd2 "SHUTDOWN";
  ignore (expect_kind next2 "shutdown ok" P.K_ok);
  ignore (expect_kind next2 "bye" P.K_bye);
  Unix.close fd2

(* binding over a path whose socket a live daemon is accepting on must
   refuse, not yank the socket out from under the running server *)
let bind_refuses_live_socket () =
  with_server @@ fun sock ->
  (match
     Server.serve
       {
         Server.endpoints = [ Server.Unix_sock sock ];
         ready_file = None;
         quiet = true;
         drain_timeout = 1;
         wal = None;
       }
   with
  | Error msg ->
      Alcotest.(check bool) "refused as in use" true
        (contains ~sub:"already in use" msg)
  | Ok () -> Alcotest.fail "second serve bound over a live socket");
  (* the first daemon is unharmed: its socket still answers *)
  let fd = sock_connect sock in
  let next = sock_reader fd in
  ignore (expect_kind next "hello" P.K_hello);
  sock_send fd "SHUTDOWN";
  ignore (expect_kind next "shutdown ok" P.K_ok);
  ignore (expect_kind next "bye" P.K_bye);
  Unix.close fd

(* host-resolution failure is a structured [Error], not an escaping
   Not_found from gethostbyname *)
let client_unknown_host () =
  match Server.Client.run (Server.Tcp ("", 9)) [ "PING" ] with
  | Error msg ->
      Alcotest.(check bool) "unknown host" true
        (contains ~sub:"unknown host" msg)
  | Ok _ -> Alcotest.fail "client connected to an empty host"

(* shutting-down refusals while draining are part of the same path but
   need a second connection; loopback covers the refusal text *)
let shutdown_refuses_new_work () =
  let l = L.create () in
  ignore (req l "OPEN s");
  ignore (expect_ok "shutdown" (req l "SHUTDOWN"));
  ()

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "server.codec",
      [
        tc "frames round trip" codec_roundtrip;
        tc "kind names round trip" codec_kind_names;
        tc "hello frame decodes" codec_hello;
        tc "malformed input typed errors" codec_errors;
        tc "encode rejects oversized payloads" codec_encode_oversized;
        tc "decode_all consumes complete frames" codec_decode_all;
        tc "data_frames splits at max_payload" codec_data_frames;
        tc "clamp makes any frame encodable" codec_clamp;
        tc "err frames round trip" codec_err_frames;
      ] );
    ( "server.request",
      [
        tc "parse∘print = id" request_roundtrip;
        tc "defaults and case folding" request_defaults_and_case;
        tc "malformed requests rejected" request_rejections;
        tc "session name validation" session_names;
      ] );
    ( "server.fuzz",
      [
        tc "random bytes never raise" fuzz_random_bytes;
        tc "mutated frames never raise" fuzz_mutated_frames;
      ] );
    ( "server.loopback",
      [
        tc "session lifecycle end to end" loopback_lifecycle;
        tc "load path errors are structured" loopback_load_path_missing;
        tc "byte-split equivalence" raw_byte_split_equivalence;
        tc "framing violation closes with err+bye" raw_violation_closes;
        tc "non-req frame is a violation" raw_non_req_kind_violates;
        tc "parse error keeps the connection" raw_parse_error_keeps_connection;
        tc "oversized responses split or truncate" raw_oversized_responses_split;
        tc "shutdown says bye" raw_shutdown_says_bye;
        tc "shutdown via request api" shutdown_refuses_new_work;
      ] );
    ( "server.differential",
      [
        tc "core jobs=1"
          (differential ~vname:"core" ~variant:`Core ~jobs:1);
        tc "core jobs=4"
          (differential ~vname:"core" ~variant:`Core ~jobs:4);
        tc "restricted jobs=1"
          (differential ~vname:"restricted" ~variant:`Restricted ~jobs:1);
        tc "restricted jobs=4"
          (differential ~vname:"restricted" ~variant:`Restricted ~jobs:4);
        tc "ok payload severity" differential_severity;
      ] );
    ( "server.faults",
      [ tc "killed chase leaves a live session" fault_mid_chase ] );
    ( "server.drain",
      [ tc "drain cancels the in-flight chase" drain_cancels_in_flight_chase ] );
    ( "server.socket",
      [
        tc "non-req frame closes one conn, not the daemon"
          daemon_rejects_non_req_frame;
        tc "bind refuses a live socket" bind_refuses_live_socket;
        tc "client reports unknown hosts" client_unknown_host;
      ] );
  ]
