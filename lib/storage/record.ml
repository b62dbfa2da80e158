open Syntax

(* The typed payloads carried by WAL frames (DESIGN.md §16).  One record
   is one durable event: the chase journal (Begin/Start/Add/Retract/
   Round), the EGD chase's unifications (Merge), the snapshot-only full
   step form (Snap_step), and the serve daemon's session journal
   (Sess_op/Sess_chase/Sess_gen).  The codec below is total: [decode]
   answers a structured [Error] on any byte soup, never an exception —
   the totality laws live in test/test_props.ml next to the wire-codec
   ones. *)

type t =
  | Begin of {
      engine : string;
      kb_path : string option;
      kb_digest : string option;
      max_steps : int;
      max_atoms : int;
      term_counter : int;
    }
  | Start of { sigma : Subst.t }
  | Add of {
      index : int;
      pi_safe : Subst.t;
      sigma : Subst.t;
      added : Atom.t list;
    }
  | Retract of { index : int; sigma : Subst.t }
  | Merge of { sigma : Subst.t }
  | Round of {
      rounds : int;
      steps : int;
      snapshot_index : int;  (** -1 encodes "no discovery snapshot yet" *)
      term_counter : int;
    }
  | Snap_step of {
      index : int;
      pi_safe : Subst.t;
      sigma : Subst.t;
      pre : Atom.t list;
      inst : Atom.t list;
    }
  | Sess_op of string
  | Sess_chase of {
      session : string;
      variant : string;
      max_steps : int;
      max_atoms : int;
      outcome : string;
      chase_steps : int;
      final : Atom.t list;
    }
  | Sess_gen of { session : string; generation : int }

(* Format 2 dropped the instance-epoch counter from [Begin] and
   [Round] and moved them to fresh tags; the format-1 tags 1 and 6 are
   retired, so an older log is refused with a structured error. *)
let tag = function
  | Begin _ -> 11
  | Start _ -> 2
  | Add _ -> 3
  | Retract _ -> 4
  | Merge _ -> 5
  | Round _ -> 12
  | Snap_step _ -> 7
  | Sess_op _ -> 8
  | Sess_chase _ -> 9
  | Sess_gen _ -> 10

let kind_name = function
  | Begin _ -> "begin"
  | Start _ -> "start"
  | Add _ -> "add"
  | Retract _ -> "retract"
  | Merge _ -> "merge"
  | Round _ -> "round"
  | Snap_step _ -> "snap-step"
  | Sess_op _ -> "sess-op"
  | Sess_chase _ -> "sess-chase"
  | Sess_gen _ -> "sess-gen"

(* ---------------------------------------------------------------- *)
(* encode *)

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let w_int b n = Buffer.add_int64_le b (Int64.of_int n)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_opt_str b = function
  | None -> w_u8 b 0
  | Some s ->
      w_u8 b 1;
      w_str b s

let w_term b t =
  if Term.is_const t then begin
    w_u8 b 0;
    w_str b (Term.hint t)
  end
  else begin
    w_u8 b 1;
    w_int b (Term.rank t);
    w_str b (Term.hint t)
  end

let w_list b w xs =
  w_int b (List.length xs);
  List.iter (w b) xs

let w_atom b a =
  w_str b (Atom.pred a);
  w_list b w_term (Atom.args a)

let w_subst b s =
  w_list b
    (fun b (x, t) ->
      w_term b x;
      w_term b t)
    (Subst.to_list s)

let encode r =
  let b = Buffer.create 128 in
  w_u8 b (tag r);
  (match r with
  | Begin
      {
        engine;
        kb_path;
        kb_digest;
        max_steps;
        max_atoms;
        term_counter;
      } ->
      w_str b engine;
      w_opt_str b kb_path;
      w_opt_str b kb_digest;
      w_int b max_steps;
      w_int b max_atoms;
      w_int b term_counter
  | Start { sigma } -> w_subst b sigma
  | Add { index; pi_safe; sigma; added } ->
      w_int b index;
      w_subst b pi_safe;
      w_subst b sigma;
      w_list b w_atom added
  | Retract { index; sigma } ->
      w_int b index;
      w_subst b sigma
  | Merge { sigma } -> w_subst b sigma
  | Round { rounds; steps; snapshot_index; term_counter } ->
      w_int b rounds;
      w_int b steps;
      w_int b snapshot_index;
      w_int b term_counter
  | Snap_step { index; pi_safe; sigma; pre; inst } ->
      w_int b index;
      w_subst b pi_safe;
      w_subst b sigma;
      w_list b w_atom pre;
      w_list b w_atom inst
  | Sess_op s -> w_str b s
  | Sess_chase { session; variant; max_steps; max_atoms; outcome; chase_steps; final }
    ->
      w_str b session;
      w_str b variant;
      w_int b max_steps;
      w_int b max_atoms;
      w_str b outcome;
      w_int b chase_steps;
      w_list b w_atom final
  | Sess_gen { session; generation } ->
      w_str b session;
      w_int b generation);
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* decode: bounds-checked reader over the payload string.  Length and
   count fields are validated against the remaining bytes before any
   allocation, so a hostile length cannot force a giant [String.sub];
   variable ranks are range-guarded so byte soup cannot blow the global
   freshness counter to the moon. *)

exception Bad of string

type reader = { s : string; mutable pos : int }

let need r n = if r.pos + n > String.length r.s then raise (Bad "truncated")

let r_u8 r =
  need r 1;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_int r =
  need r 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code r.s.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  (* reject payloads whose integers do not fit a 63-bit OCaml int: they
     cannot have been produced by [encode] *)
  if Int64.to_int !v |> Int64.of_int <> !v then raise (Bad "integer overflow");
  Int64.to_int !v

let r_len r =
  let n = r_int r in
  if n < 0 || n > String.length r.s - r.pos then raise (Bad "bad length");
  n

let r_str r =
  let n = r_len r in
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let r_opt_str r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (r_str r)
  | _ -> raise (Bad "bad option tag")

let max_rank = 1 lsl 40

let r_term r =
  match r_u8 r with
  | 0 -> Term.const (r_str r)
  | 1 ->
      let rank = r_int r in
      if rank < 0 || rank > max_rank then raise (Bad "bad variable rank");
      let hint = r_str r in
      Term.var_of_id ~hint rank
  | _ -> raise (Bad "bad term tag")

let r_list r elt =
  let n = r_len r in
  (* each element is at least one byte, so [r_len]'s remaining-bytes
     bound already prevents absurd counts *)
  List.init n (fun _ -> elt r)

let r_atom r =
  let pred = r_str r in
  let args = r_list r r_term in
  Atom.make pred args

let r_subst r =
  Subst.of_list
    (r_list r (fun r ->
         let x = r_term r in
         let t = r_term r in
         (x, t)))

let decode s =
  let r = { s; pos = 0 } in
  match
    let v =
      match r_u8 r with
      | (1 | 6) as t ->
          raise
            (Bad
               (Printf.sprintf
                  "retired record tag %d: a format-1 log, written before \
                   the WAL record format 2 (re-run the chase)"
                  t))
      | 11 ->
          let engine = r_str r in
          let kb_path = r_opt_str r in
          let kb_digest = r_opt_str r in
          let max_steps = r_int r in
          let max_atoms = r_int r in
          let term_counter = r_int r in
          Begin
            { engine; kb_path; kb_digest; max_steps; max_atoms; term_counter }
      | 2 -> Start { sigma = r_subst r }
      | 3 ->
          let index = r_int r in
          let pi_safe = r_subst r in
          let sigma = r_subst r in
          let added = r_list r r_atom in
          Add { index; pi_safe; sigma; added }
      | 4 ->
          let index = r_int r in
          let sigma = r_subst r in
          Retract { index; sigma }
      | 5 -> Merge { sigma = r_subst r }
      | 12 ->
          let rounds = r_int r in
          let steps = r_int r in
          let snapshot_index = r_int r in
          let term_counter = r_int r in
          Round { rounds; steps; snapshot_index; term_counter }
      | 7 ->
          let index = r_int r in
          let pi_safe = r_subst r in
          let sigma = r_subst r in
          let pre = r_list r r_atom in
          let inst = r_list r r_atom in
          Snap_step { index; pi_safe; sigma; pre; inst }
      | 8 -> Sess_op (r_str r)
      | 9 ->
          let session = r_str r in
          let variant = r_str r in
          let max_steps = r_int r in
          let max_atoms = r_int r in
          let outcome = r_str r in
          let chase_steps = r_int r in
          let final = r_list r r_atom in
          Sess_chase
            { session; variant; max_steps; max_atoms; outcome; chase_steps; final }
      | 10 ->
          let session = r_str r in
          let generation = r_int r in
          Sess_gen { session; generation }
      | t -> raise (Bad (Printf.sprintf "unknown record tag %d" t))
    in
    if r.pos <> String.length s then raise (Bad "trailing bytes");
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m

(* ---------------------------------------------------------------- *)

let equal_atoms a b = List.equal Atom.equal a b

let equal a b =
  match (a, b) with
  | Begin a, Begin b ->
      String.equal a.engine b.engine
      && Option.equal String.equal a.kb_path b.kb_path
      && Option.equal String.equal a.kb_digest b.kb_digest
      && a.max_steps = b.max_steps && a.max_atoms = b.max_atoms
      && a.term_counter = b.term_counter
  | Start a, Start b -> Subst.equal a.sigma b.sigma
  | Add a, Add b ->
      a.index = b.index
      && Subst.equal a.pi_safe b.pi_safe
      && Subst.equal a.sigma b.sigma
      && equal_atoms a.added b.added
  | Retract a, Retract b -> a.index = b.index && Subst.equal a.sigma b.sigma
  | Merge a, Merge b -> Subst.equal a.sigma b.sigma
  | Round a, Round b ->
      a.rounds = b.rounds && a.steps = b.steps
      && a.snapshot_index = b.snapshot_index
      && a.term_counter = b.term_counter
  | Snap_step a, Snap_step b ->
      a.index = b.index
      && Subst.equal a.pi_safe b.pi_safe
      && Subst.equal a.sigma b.sigma
      && equal_atoms a.pre b.pre && equal_atoms a.inst b.inst
  | Sess_op a, Sess_op b -> String.equal a b
  | Sess_chase a, Sess_chase b ->
      String.equal a.session b.session
      && String.equal a.variant b.variant
      && a.max_steps = b.max_steps && a.max_atoms = b.max_atoms
      && String.equal a.outcome b.outcome
      && a.chase_steps = b.chase_steps
      && equal_atoms a.final b.final
  | Sess_gen a, Sess_gen b ->
      String.equal a.session b.session && a.generation = b.generation
  | _ -> false

let pp ppf r = Fmt.string ppf (kind_name r)
