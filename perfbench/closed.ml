(* The closed-loop runner shared by paper-core and zoo-ingest: one
   client in this process, each job started when the previous one has
   completed (pool width 1, the CLI default).

   Set-up is the fixed warm-up list, run three times and timed each
   time.  The measured phase runs a fixed number of whole seeded decks,
   so every run of a seed measures the same jobs.  In a traced run each
   job runs twice, once with tracing and once without (alternating which
   goes first): the layer split comes from the traced runs and the
   tracing overhead from the pairs. *)

type 'job spec = {
  deck_seconds : float;
      (** about how long one deck runs on the host the benchmark was
          tuned on: a run of [seconds] measures [seconds / deck_seconds]
          whole decks, the same work on every host *)
  warmup : 'job list;
  deck : Random.State.t -> 'job array;
  run : 'job -> (string * (unit, string) result) list;
}

let setup_repeats = 3

type result = {
  tally : Common.tally;
  setup_s : float list;  (** calibrated warm-up totals *)
  job_ms : float list;  (** calibrated, untraced *)
  traced_ms : float list;  (** calibrated, traced (traced run only) *)
  overhead : float list;  (** traced / untraced per pair *)
  counters : (string * int) list * (string * int) list;
      (** [Obs.Metrics.counters ()] before and after the measured phase *)
}

(* Run one job; an exception counts as a failed check. *)
let exec tally spec job =
  let run () =
    try spec.run job with e -> [ ("job", Error (Printexc.to_string e)) ]
  in
  let checks, raw, k = Common.timed run in
  Layers.flush k;
  List.iter (fun (what, r) -> Common.check tally what r) checks;
  raw *. k

let run spec ~seed ~seconds ~trace =
  let tally = Common.tally () in
  let setup_s =
    List.init setup_repeats (fun _ ->
        Common.sum (List.map (exec tally spec) spec.warmup) /. 1000.)
  in
  let st = Common.rng seed in
  let decks = Float.to_int (Float.round (seconds /. spec.deck_seconds)) in
  (* a traced run measures each job twice: half the decks keep its length *)
  let decks = max 1 (if trace then decks / 2 else decks) in
  let job_ms = ref [] and traced_ms = ref [] and overhead = ref [] in
  let pairs = ref 0 in
  let before = Obs.Metrics.counters () in
  for _ = 1 to decks do
    Array.iter
      (fun job ->
        if not trace then job_ms := exec tally spec job :: !job_ms
        else begin
          let traced () =
            Layers.start ();
            Fun.protect ~finally:Layers.stop (fun () -> exec tally spec job)
          in
          let untraced () = exec tally spec job in
          let t, u =
            if !pairs mod 2 = 0 then
              let u = untraced () in
              (traced (), u)
            else
              let t = traced () in
              (t, untraced ())
          in
          incr pairs;
          job_ms := u :: !job_ms;
          traced_ms := t :: !traced_ms;
          overhead := (t /. u) :: !overhead
        end)
      (spec.deck st)
  done;
  {
    tally;
    setup_s;
    job_ms = !job_ms;
    traced_ms = !traced_ms;
    overhead = !overhead;
    counters = (before, Obs.Metrics.counters ());
  }
