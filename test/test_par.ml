(* Multicore determinism (DESIGN.md §10):

   (a) combinator laws — [Par.map]/[map_reduce] preserve input order,
       [find_first_map] returns the sequential first success even when a
       later task finishes first, exceptions re-raise lowest-index
       first, nested fan-outs degrade instead of deadlocking;
   (b) shared atomics — fresh-variable ids stay unique when hammered
       from four raw domains;
   (c) differential runs — every engine (oblivious, skolem, restricted,
       frugal, core) on every workload (staircase, elevator, transitive
       closure, random KBs) produces the *identical* derivation under
       jobs=4 as under jobs=1: same triggers in the same order, equal
       (not merely isomorphic) instances at every step, and equal
       scheduling-independent counters;
   (d) a `Slow stress loop repeating (c) ≥50 times, intended for the CI
       multicore job which also sets OCAMLRUNPARAM=R so that randomised
       hashtable seeding cannot hide iteration-order luck. *)

open Syntax

let atom p args = Atom.make p args

let budget steps = { Chase.Variants.max_steps = steps; max_atoms = 5_000 }

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.enabled := false) f

(* ------------------------------------------------------------------ *)
(* (a) combinator laws *)

let spin () =
  (* burn enough cycles that a parallel sibling certainly finishes first *)
  let r = ref 0 in
  for _ = 1 to 200_000 do
    incr r
  done;
  ignore (Sys.opaque_identity !r)

let test_map_matches_sequential () =
  let xs = List.init 257 (fun i -> i - 7) in
  let f x = (x * x) - (3 * x) in
  let ambient = Par.jobs () in
  Par.with_jobs 4 (fun () ->
      Alcotest.(check (list int)) "map preserves input order" (List.map f xs)
        (Par.map f xs));
  Alcotest.(check int) "with_jobs restores the width" ambient (Par.jobs ())

let test_find_first_map_sequential_semantics () =
  (* index 3 matches but is slow; later even indices match instantly —
     the lowest index must still win, exactly as List.find_map *)
  let f x =
    if x = 3 then begin
      spin ();
      Some x
    end
    else if x > 3 && x land 1 = 0 then Some x
    else None
  in
  let xs = List.init 64 Fun.id in
  Par.with_jobs 4 (fun () ->
      Alcotest.(check (option int)) "lowest-index success wins"
        (List.find_map f xs) (Par.find_first_map f xs);
      Alcotest.(check (option int)) "no match is None" None
        (Par.find_first_map (fun _ -> None) xs))

let test_map_reduce_input_order () =
  let xs = List.init 40 Fun.id in
  let expected =
    List.fold_left (fun acc x -> acc ^ "," ^ string_of_int x) "" xs
  in
  Par.with_jobs 3 (fun () ->
      Alcotest.(check string) "non-commutative reduce folds in input order"
        expected
        (Par.map_reduce ~map:string_of_int
           ~reduce:(fun acc s -> acc ^ "," ^ s)
           ~init:"" xs))

let test_exceptions_lowest_index () =
  Par.with_jobs 4 (fun () ->
      match
        Par.map
          (fun x -> if x mod 5 = 2 then failwith (string_of_int x) else x)
          (List.init 32 Fun.id)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
          Alcotest.(check string) "first failing task re-raised" "2" m)

let test_chunked_map_large () =
  (* 5_000 tasks exceed the [chunk_factor × jobs] chunk budget, so
     multi-item strided chunks carry the batch (DESIGN.md §12): the
     combinator laws — order, coverage, lowest-index exception — must
     hold exactly as on the one-task-per-chunk path *)
  let n = 5_000 in
  let xs = List.init n Fun.id in
  let f x = (7 * x) + (x mod 13) in
  Par.with_jobs 4 (fun () ->
      Alcotest.(check (list int)) "chunked map matches List.map" (List.map f xs)
        (Par.map f xs);
      let hits = Array.make n 0 in
      Par.iter (fun i -> hits.(i) <- hits.(i) + 1) xs;
      Alcotest.(check bool) "chunked iter visits each task exactly once" true
        (Array.for_all (fun c -> c = 1) hits);
      match
        Par.map
          (fun x -> if x >= 100 && x mod 97 = 0 then failwith (string_of_int x) else x)
          xs
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
          Alcotest.(check string) "lowest failing task re-raised" "194" m)

let test_set_jobs_rejects_nonpositive () =
  Alcotest.check_raises "set_jobs 0 refused"
    (Invalid_argument "Par.set_jobs: jobs must be >= 1") (fun () ->
      Par.set_jobs 0)

let test_nested_fanout_degrades () =
  (* a combinator inside a running batch must fall back to the
     sequential path (no deadlock, same result) *)
  Par.with_jobs 4 (fun () ->
      let inner =
        Par.map (fun row -> Par.map (fun x -> x * row) [ 1; 2; 3 ]) [ 10; 20; 30; 40 ]
      in
      Alcotest.(check (list (list int)))
        "nested map degrades to sequential, same result"
        [ [ 10; 20; 30 ]; [ 20; 40; 60 ]; [ 30; 60; 90 ]; [ 40; 80; 120 ] ]
        inner)

(* ------------------------------------------------------------------ *)
(* (b) shared atomics under raw domains *)

let test_fresh_vars_unique_across_domains () =
  let per = 2_000 in
  let mk () = Array.init per (fun _ -> Term.fresh_var ~hint:"d" ()) in
  let doms = List.init 4 (fun _ -> Domain.spawn mk) in
  let mine = mk () in
  let all =
    Array.to_list mine
    @ List.concat_map (fun d -> Array.to_list (Domain.join d)) doms
  in
  Alcotest.(check int) "fresh-variable ids never collide" (5 * per)
    (List.length (List.sort_uniq Term.compare all))

(* ------------------------------------------------------------------ *)
(* (c) differential runs: jobs=4 ≡ jobs=1, byte-for-byte *)

type engine = Restricted | Core | Frugal | Oblivious | Skolem

let engine_name = function
  | Restricted -> "restricted"
  | Core -> "core"
  | Frugal -> "frugal"
  | Oblivious -> "oblivious"
  | Skolem -> "skolem"

(* Counters whose totals are pinned by the determinism discipline.  The
   hom.* counters are deliberately absent: a parallel first-success
   search runs a whole wave of candidates, so solve and backtrack counts
   depend on the pool width; only their per-run *effects* (the
   derivation itself) are schedule-independent. *)
let sched_independent =
  [
    "chase.rounds";
    "chase.discoveries";
    "chase.triggers_enumerated";
    "chase.triggers_applied";
    "chase.retractions";
    "chase.egd_merges";
    "core.scoped_searches";
    "core.scoped_certified";
    "core.full_fallbacks";
    "tw.computations";
  ]

let counters_snapshot () =
  List.map
    (fun n ->
      ( n,
        match List.assoc_opt n (Obs.Metrics.counters ()) with
        | Some v -> v
        | None -> 0 ))
    sched_independent

type fingerprint = {
  fp_steps : (string * Atomset.t * Atomset.t) list;
      (* trigger, pre-instance, instance — pre pins the simplification *)
  fp_tail : string; (* outcome / rounds / termination summary *)
  fp_counters : (string * int) list;
}

let fp_equal a b =
  String.equal a.fp_tail b.fp_tail
  && a.fp_counters = b.fp_counters
  && List.length a.fp_steps = List.length b.fp_steps
  && List.for_all2
       (fun (ta, pa, ia) (tb, pb, ib) ->
         String.equal ta tb && Atomset.equal pa pb && Atomset.equal ia ib)
       a.fp_steps b.fp_steps

(* Reset the fresh-variable counter and rebuild the KB inside the run so
   both runs allocate byte-identical nulls; instance equality below is
   Atomset.equal, not isomorphism. *)
let run_fingerprint engine ~jobs mk_kb steps =
  Par.with_jobs jobs (fun () ->
      Term.reset_counter_for_tests ();
      let kb = mk_kb () in
      with_metrics (fun () ->
          let fp =
            match engine with
            | Oblivious | Skolem ->
                let run =
                  (match engine with
                  | Oblivious -> Chase.Variants.Baseline.oblivious
                  | _ -> Chase.Variants.Baseline.skolem)
                    ~budget:(budget steps) kb
                in
                let { Chase.Variants.Baseline.instances; outcome; steps } =
                  run
                in
                {
                  fp_steps = List.map (fun i -> ("", i, i)) instances;
                  fp_tail =
                    Printf.sprintf "terminated=%b steps=%d"
                      (Resilience.terminated outcome) steps;
                  fp_counters = [];
                }
            | Restricted | Core | Frugal ->
                let run =
                  match engine with
                  | Restricted ->
                      Chase.Variants.restricted ~budget:(budget steps) kb
                  | Core -> Chase.Variants.core ~budget:(budget steps) kb
                  | _ -> Chase.Variants.frugal ~budget:(budget steps) kb
                in
                {
                  fp_steps =
                    List.map
                      (fun (s : Chase.Derivation.step) ->
                        ( (match s.trigger with
                          | None -> "-"
                          | Some tr -> Fmt.str "%a" Chase.Trigger.pp tr),
                          s.pre_instance,
                          s.instance ))
                      (Chase.Derivation.steps run.Chase.Variants.derivation);
                  fp_tail =
                    Printf.sprintf "outcome=%s rounds=%d"
                      (match run.Chase.Variants.outcome with
                      | Chase.Variants.Fixpoint -> "T"
                      | _ -> "B")
                      run.Chase.Variants.rounds;
                  fp_counters = [];
                }
          in
          { fp with fp_counters = counters_snapshot () }))

let workloads () =
  [
    ("staircase", Zoo.Staircase.kb, 18);
    ("elevator", Zoo.Elevator.kb, 14);
    ("transitive-closure", Zoo.Classic.transitive_closure, 40);
    ( "randomkb-101",
      (fun () -> Zoo.Randomkb.generate ~seed:101 Zoo.Randomkb.default),
      20 );
    ( "randomkb-102",
      (fun () -> Zoo.Randomkb.generate ~seed:102 Zoo.Randomkb.default),
      20 );
    ( "randomkb-datalog",
      (fun () -> Zoo.Randomkb.generate ~seed:103 Zoo.Randomkb.datalog),
      25 );
  ]

let test_engine_differential engine () =
  List.iter
    (fun (name, mk, steps) ->
      let s = run_fingerprint engine ~jobs:1 mk steps in
      let p = run_fingerprint engine ~jobs:4 mk steps in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: jobs=4 identical to jobs=1"
           (engine_name engine) name)
        true (fp_equal s p))
    (workloads ())

let test_parallel_work_lands_on_workers () =
  (* guard against a silently-sequential pool: a jobs=4 run must fan out
     and push payload counter increments onto worker slots *)
  Par.with_jobs 4 (fun () ->
      Term.reset_counter_for_tests ();
      let kb = Zoo.Staircase.kb () in
      with_metrics (fun () ->
          ignore (Chase.Variants.core ~budget:(budget 15) kb);
          let fanouts =
            match List.assoc_opt "par.fanouts" (Obs.Metrics.counters ()) with
            | Some v -> v
            | None -> 0
          in
          Alcotest.(check bool) "fan-outs happened" true (fanouts > 0);
          let off_main =
            List.exists
              (fun (_, cells) ->
                Array.exists (fun v -> v > 0)
                  (Array.sub cells 1 (Array.length cells - 1)))
              (Obs.Metrics.counters_by_slot ())
          in
          Alcotest.(check bool) "some counter incremented on a worker slot"
            true off_main))

(* ------------------------------------------------------------------ *)
(* (d) stress: repeat the differential comparison under domain churn *)

let test_stress_repeated_parallel_runs () =
  let mk_stair () = Zoo.Staircase.kb () in
  let mk_rand () = Zoo.Randomkb.generate ~seed:211 Zoo.Randomkb.default in
  let ref_stair = run_fingerprint Core ~jobs:1 mk_stair 12 in
  let ref_rand = run_fingerprint Restricted ~jobs:1 mk_rand 15 in
  for i = 1 to 50 do
    let engine, mk, steps, reference =
      if i land 1 = 0 then (Core, mk_stair, 12, ref_stair)
      else (Restricted, mk_rand, 15, ref_rand)
    in
    let p = run_fingerprint engine ~jobs:4 mk steps in
    Alcotest.(check bool)
      (Printf.sprintf "stress iteration %d identical" i)
      true (fp_equal reference p)
  done

(* ------------------------------------------------------------------ *)
(* (e) batch laws (DESIGN.md §14): Par.Batch.run over N independent
   jobs is byte-identical to the isolated sequential loop, in
   submission order, at every width — including under fault injection
   and with a seeded cancellation token. *)

let result_line = function
  | Ok s -> "ok:" ^ s
  | Error e -> "err:" ^ Printexc.to_string e

let test_batch_order_and_error_isolation () =
  let tasks =
    Array.init 17 (fun i () ->
        if i = 5 then failwith "task5" else string_of_int (i * i))
  in
  let expected =
    Array.to_list
      (Array.init 17 (fun i ->
           if i = 5 then "err:Failure(\"task5\")"
           else "ok:" ^ string_of_int (i * i)))
  in
  List.iter
    (fun jobs ->
      Par.with_jobs jobs (fun () ->
          Alcotest.(check (list string))
            (Printf.sprintf
               "jobs=%d: results in submission order, failure isolated" jobs)
            expected
            (Array.to_list (Array.map result_line (Par.Batch.run tasks)))))
    [ 1; 4 ]

(* one whole chase per task, KB built inside the task: the batch result
   must equal the handwritten isolated sequential loop — same summary
   strings AND Atomset-equal final instances (not merely isomorphic),
   at jobs=1 and jobs=4 *)
let batch_chase_jobs () =
  [
    (fun () ->
      let r = Chase.Variants.core ~budget:(budget 12) (Zoo.Staircase.kb ()) in
      ("stair", r.Chase.Variants.rounds, (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance));
    (fun () ->
      let r = Chase.Variants.core ~budget:(budget 10) (Zoo.Elevator.kb ()) in
      ("elev", r.Chase.Variants.rounds, (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance));
    (fun () ->
      let kb = Zoo.Randomkb.generate ~seed:311 Zoo.Randomkb.default in
      let r = Chase.Variants.restricted ~budget:(budget 20) kb in
      ("rand", r.Chase.Variants.rounds, (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance));
    (fun () ->
      let kb = Zoo.Randomkb.generate ~seed:312 Zoo.Randomkb.datalog in
      let r = Chase.Variants.restricted ~budget:(budget 20) kb in
      ("data", r.Chase.Variants.rounds, (Chase.Derivation.last r.Chase.Variants.derivation).Chase.Derivation.instance));
  ]

let test_batch_kb_differential () =
  (* the reference: the same per-task isolation, spelled out by hand *)
  let sequential_loop () =
    List.map
      (fun job ->
        Term.reset_counter_for_tests ();
        job ())
      (batch_chase_jobs ())
  in
  let expected = sequential_loop () in
  List.iter
    (fun jobs ->
      Par.with_jobs jobs (fun () ->
          let got = Par.Batch.run (Array.of_list (batch_chase_jobs ())) in
          List.iteri
            (fun i (name, rounds, final) ->
              match got.(i) with
              | Error e -> Alcotest.fail (Printexc.to_string e)
              | Ok (name', rounds', final') ->
                  Alcotest.(check string)
                    (Printf.sprintf "jobs=%d task %d name" jobs i)
                    name name';
                  Alcotest.(check int)
                    (Printf.sprintf "jobs=%d task %d rounds" jobs i)
                    rounds rounds';
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "jobs=%d task %d final instance Atomset-equal" jobs i)
                    true
                    (Atomset.equal final final'))
            expected))
    [ 1; 4 ]

let test_batch_fault_same_task_at_every_width () =
  (* par-site hits are decided on the caller in submission order, so
     par:2:cancel must disable the {e second} task at every width *)
  let run jobs =
    Resilience.Fault.set_spec "par:2:cancel";
    Fun.protect ~finally:Resilience.Fault.clear (fun () ->
        Par.with_jobs jobs (fun () ->
            Array.to_list
              (Array.map result_line
                 (Par.Batch.run
                    (Array.init 6 (fun i () -> string_of_int (i + 100)))))))
  in
  let at1 = run 1 and at4 = run 4 in
  Alcotest.(check (list string)) "same task faulted at jobs=1 and jobs=4" at1
    at4;
  Alcotest.(check bool) "task 1 is the faulted one" true
    (String.length (List.nth at1 1) >= 4
    && String.sub (List.nth at1 1) 0 4 = "err:");
  List.iteri
    (fun i line ->
      if i <> 1 then
        Alcotest.(check string)
          (Printf.sprintf "task %d unaffected" i)
          ("ok:" ^ string_of_int (i + 100))
          line)
    at1

let test_batch_nested_degrades () =
  Par.with_jobs 4 (fun () ->
      let outer =
        Par.Batch.run
          (Array.init 3 (fun i () ->
               Par.Batch.run (Array.init 3 (fun j () -> (10 * i) + j))))
      in
      Array.iteri
        (fun i r ->
          match r with
          | Error e -> Alcotest.fail (Printexc.to_string e)
          | Ok inner ->
              Array.iteri
                (fun j r' ->
                  match r' with
                  | Error e -> Alcotest.fail (Printexc.to_string e)
                  | Ok v ->
                      Alcotest.(check int)
                        (Printf.sprintf "nested batch (%d,%d)" i j)
                        ((10 * i) + j)
                        v)
                inner)
        outer)

let test_batch_seeded_token_reaches_tasks () =
  (* a token tripped before submission cancels every task (each task's
     private scope is seeded from the submission's ambient token) *)
  let token = Resilience.Token.create () in
  Resilience.Token.cancel token;
  Par.with_jobs 4 (fun () ->
      Resilience.with_token (Some token) (fun () ->
          Array.iteri
            (fun i r ->
              match r with
              | Error (Resilience.Interrupted _) -> ()
              | Ok _ -> Alcotest.fail (Printf.sprintf "task %d not cancelled" i)
              | Error e -> Alcotest.fail (Printexc.to_string e))
            (Par.Batch.run
               (Array.init 5 (fun _ () ->
                    Resilience.poll ();
                    ())))));
  (* and without a token the same tasks all succeed *)
  Par.with_jobs 4 (fun () ->
      Array.iter
        (fun r ->
          match r with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Printexc.to_string e))
        (Par.Batch.run
           (Array.init 5 (fun _ () ->
                Resilience.poll ();
                ()))))

let test_batch_hot_submission () =
  (* many consecutive small batches across width changes: the worklist
     wake/park protocol must never lose a submission or a result *)
  for round = 1 to 60 do
    let jobs = if round land 1 = 0 then 4 else 1 in
    Par.with_jobs jobs (fun () ->
        let n = 1 + (round mod 7) in
        let got = Par.Batch.run (Array.init n (fun i () -> (round * 100) + i)) in
        Array.iteri
          (fun i r ->
            match r with
            | Ok v ->
                Alcotest.(check int)
                  (Printf.sprintf "round %d task %d" round i)
                  ((round * 100) + i)
                  v
            | Error e -> Alcotest.fail (Printexc.to_string e))
          got)
  done

let suites =
  [
    ( "par.combinators",
      [
        Alcotest.test_case "map matches List.map" `Quick
          test_map_matches_sequential;
        Alcotest.test_case "find_first_map is sequential-first" `Quick
          test_find_first_map_sequential_semantics;
        Alcotest.test_case "map_reduce folds in input order" `Quick
          test_map_reduce_input_order;
        Alcotest.test_case "chunked large fan-out laws" `Quick
          test_chunked_map_large;
        Alcotest.test_case "lowest-index exception re-raised" `Quick
          test_exceptions_lowest_index;
        Alcotest.test_case "set_jobs rejects n < 1" `Quick
          test_set_jobs_rejects_nonpositive;
        Alcotest.test_case "nested fan-out degrades" `Quick
          test_nested_fanout_degrades;
      ] );
    ( "par.atomics",
      [
        Alcotest.test_case "fresh vars unique across domains" `Quick
          test_fresh_vars_unique_across_domains;
      ] );
    ( "par.differential",
      [
        Alcotest.test_case "oblivious: jobs=4 ≡ jobs=1" `Quick
          (test_engine_differential Oblivious);
        Alcotest.test_case "skolem: jobs=4 ≡ jobs=1" `Quick
          (test_engine_differential Skolem);
        Alcotest.test_case "restricted: jobs=4 ≡ jobs=1" `Quick
          (test_engine_differential Restricted);
        Alcotest.test_case "frugal: jobs=4 ≡ jobs=1" `Quick
          (test_engine_differential Frugal);
        Alcotest.test_case "core: jobs=4 ≡ jobs=1" `Quick
          (test_engine_differential Core);
        Alcotest.test_case "work lands on worker slots" `Quick
          test_parallel_work_lands_on_workers;
      ] );
    ( "par.batch",
      [
        Alcotest.test_case "submission order + error isolation" `Quick
          test_batch_order_and_error_isolation;
        Alcotest.test_case "N chases ≡ isolated sequential loop" `Quick
          test_batch_kb_differential;
        Alcotest.test_case "par fault hits the same task at every width"
          `Quick test_batch_fault_same_task_at_every_width;
        Alcotest.test_case "nested batch degrades" `Quick
          test_batch_nested_degrades;
        Alcotest.test_case "seeded token cancels every task" `Quick
          test_batch_seeded_token_reaches_tasks;
        Alcotest.test_case "hot submission across width changes" `Quick
          test_batch_hot_submission;
      ] );
    ( "par.stress",
      [
        Alcotest.test_case "50 repeated parallel runs" `Slow
          test_stress_repeated_parallel_runs;
      ] );
  ]
