(* Domain pool with deterministic fan-out (DESIGN.md §10, §14).

   Each worker owns a persistent worklist: a published chunk array plus
   an [Atomic] sequence number.  Submitting a batch is, per active
   worker, one plain store (the chunk array) and one atomic store (the
   seq bump) — the message-passing publication idiom of the OCaml
   memory model — plus a per-worker condition signal only when that
   worker is parked.  The PR-4 design paid a process mutex and two
   condition broadcasts per fan-out; the worklist path pays atomics,
   and touches a mutex only to sleep or wake.

   Assignment stays static — chunk [i] belongs to slot [i mod jobs],
   the caller runs slot 0's share itself — so which domain executes
   which task is a function of the batch alone, never of timing.  That
   staticness is what makes the per-domain counter split of
   [Obs.Metrics] reproducible; the price (no work stealing within a
   fan-out) is irrelevant at the chunk sizes the chase produces.

   Determinism of results is the combinators' business: they write each
   task's result into its own slot of a caller-allocated array and merge
   by index after the barrier, so the merge order is the input order no
   matter which domain finished first.

   [Batch] (bottom of this file) is the throughput layer on top of the
   same pool: N independent tasks (whole chases, entailment queries)
   claimed dynamically, with per-task isolation of the ambient state. *)

let max_jobs = 64

let m_fanouts = Obs.Metrics.counter "par.fanouts"

let m_tasks = Obs.Metrics.counter "par.tasks"

(* Spinning before parking is only profitable when every domain of the
   pool can actually run at once; an oversubscribed pool (more jobs
   than cores — the single-core CI containers, notably) parks
   immediately, which both avoids burning the one core the caller
   needs and reproduces the PR-4 sleep behaviour there. *)
let cores = Domain.recommended_domain_count ()

let spin_budget jobs = if jobs <= cores then 2_000 else 0

module Pool = struct
  type worklist = {
    seq : int Atomic.t;  (** number of batches submitted to this worker *)
    mutable chunks : (unit -> unit) array;
        (** current batch; written (plain) before the [seq] bump that
            publishes it, read by the worker only after observing the
            bump — the release/acquire pair of the OCaml memory model *)
    sleeping : bool Atomic.t;  (** worker parked on [wc]; set under [wm] *)
    wm : Mutex.t;
    wc : Condition.t;
  }

  type t = {
    jobs : int;
    lists : worklist array;  (** worker slot [k] owns [lists.(k - 1)] *)
    remaining : int Atomic.t;  (** active workers still in the batch *)
    waiting : bool Atomic.t;  (** caller parked on [done_] *)
    dm : Mutex.t;
    done_ : Condition.t;
    abort : exn option Atomic.t;
        (** first chunk/poll failure of the batch; first writer wins,
            re-raised by [run] after the barrier *)
    stop : bool Atomic.t;
    mutable domains : unit Domain.t array;
  }

  let jobs p = p.jobs

  (* The one slice-execution loop both the caller and the workers run:
     chunks [slot], [slot + jobs], [slot + 2·jobs], … of the batch.
     The ambient cancellation token is polled between chunks, so a long
     batch notices a deadline even when the chunk payloads themselves
     do not poll (raw [Pool.run] users); [run_all]'s payloads
     additionally poll per task. *)
  let exec_slice ~jobs chunks slot =
    let n = Array.length chunks in
    let i = ref slot in
    while !i < n do
      chunks.(!i) ();
      i := !i + jobs;
      if !i < n then Resilience.poll ()
    done

  (* A raise (from the slice poll or from a chunk itself) is recorded in
     [abort] and re-raised by [run] after the barrier, so a failure can
     never leave caller and workers out of sync on the batch protocol. *)
  let run_slice p chunks slot =
    match exec_slice ~jobs:p.jobs chunks slot with
    | () -> ()
    | exception e -> ignore (Atomic.compare_and_set p.abort None (Some e))

  let worker p slot () =
    Obs.Metrics.set_slot slot;
    let w = p.lists.(slot - 1) in
    let last = ref 0 in
    let spin = spin_budget p.jobs in
    let running = ref true in
    while !running do
      (* fast path: the next batch usually arrives while we spin *)
      let budget = ref spin in
      while
        (not (Atomic.get p.stop))
        && Atomic.get w.seq = !last
        && !budget > 0
      do
        Domain.cpu_relax ();
        decr budget
      done;
      if Atomic.get w.seq = !last && not (Atomic.get p.stop) then begin
        (* slow path: park.  [sleeping] is set before the re-check of
           [seq] under the mutex; the submitter bumps [seq] before it
           reads [sleeping].  Under sequential consistency of atomics,
           a submission that misses the flag (skips the signal) is one
           whose bump the re-check is guaranteed to see. *)
        Mutex.lock w.wm;
        Atomic.set w.sleeping true;
        while (not (Atomic.get p.stop)) && Atomic.get w.seq = !last do
          Condition.wait w.wc w.wm
        done;
        Atomic.set w.sleeping false;
        Mutex.unlock w.wm
      end;
      if Atomic.get p.stop then running := false
      else begin
        last := Atomic.get w.seq;
        run_slice p w.chunks slot;
        (* barrier: last worker out wakes the caller iff it parked *)
        if
          Atomic.fetch_and_add p.remaining (-1) = 1
          && Atomic.get p.waiting
        then begin
          Mutex.lock p.dm;
          Condition.broadcast p.done_;
          Mutex.unlock p.dm
        end
      end
    done

  let create ~jobs =
    if jobs < 2 then invalid_arg "Par.Pool.create: jobs must be >= 2";
    let p =
      {
        jobs;
        lists =
          Array.init (jobs - 1) (fun _ ->
              {
                seq = Atomic.make 0;
                chunks = [||];
                sleeping = Atomic.make false;
                wm = Mutex.create ();
                wc = Condition.create ();
              });
        remaining = Atomic.make 0;
        waiting = Atomic.make false;
        dm = Mutex.create ();
        done_ = Condition.create ();
        abort = Atomic.make None;
        stop = Atomic.make false;
        domains = [||];
      }
    in
    p.domains <- Array.init (jobs - 1) (fun k -> Domain.spawn (worker p (k + 1)));
    p

  let run p chunks =
    let nchunks = Array.length chunks in
    if nchunks = 0 then ()
    else begin
      (* only the workers that own a nonempty slice take part: a tiny
         fan-out (n = 2, 3 — common at trigger sites with few rules)
         publishes to and waits for [n - 1] workers, not [jobs - 1] *)
      let active = min (nchunks - 1) (p.jobs - 1) in
      Atomic.set p.abort None;
      Atomic.set p.remaining active;
      for k = 1 to active do
        let w = p.lists.(k - 1) in
        w.chunks <- chunks;
        Atomic.incr w.seq;
        if Atomic.get w.sleeping then begin
          Mutex.lock w.wm;
          Condition.signal w.wc;
          Mutex.unlock w.wm
        end
      done;
      (* the caller is slot 0 *)
      run_slice p chunks 0;
      if Atomic.get p.remaining > 0 then begin
        let budget = ref (spin_budget p.jobs) in
        while Atomic.get p.remaining > 0 && !budget > 0 do
          Domain.cpu_relax ();
          decr budget
        done;
        if Atomic.get p.remaining > 0 then begin
          Mutex.lock p.dm;
          Atomic.set p.waiting true;
          while Atomic.get p.remaining > 0 do
            Condition.wait p.done_ p.dm
          done;
          Atomic.set p.waiting false;
          Mutex.unlock p.dm
        end
      end;
      (* drop the chunk closures so finished batches don't pin their
         captured state; workers only read [chunks] after the next seq
         bump, which is ordered after the next batch's store *)
      for k = 1 to active do
        p.lists.(k - 1).chunks <- [||]
      done;
      match Atomic.get p.abort with
      | None -> ()
      | Some e ->
          Atomic.set p.abort None;
          raise e
    end

  let shutdown p =
    Atomic.set p.stop true;
    Array.iter
      (fun w ->
        Mutex.lock w.wm;
        Condition.broadcast w.wc;
        Mutex.unlock w.wm)
      p.lists;
    Array.iter Domain.join p.domains;
    p.domains <- [||]
end

(* ------------------------------------------------------------------ *)
(* The process-wide pool, sized by CORECHASE_JOBS / set_jobs / --jobs. *)

let current : Pool.t option ref = ref None

(* true while a batch is in flight on the caller; nested combinator
   calls (from a chunk the caller runs itself) degrade to sequential *)
let busy = ref false

(* Oversubscription clamp: the pool is spawned at
   [min requested cores] — with more domains than cores they would
   time-share, so a fan-out still pays every worker wake-up (context
   switches on the very core the caller needs) and can never finish
   earlier than a narrower pool; worse, merely keeping surplus domains
   alive taxes every minor collection with their stop-the-world
   synchronisation (~12% on the abl:par workload on a 1-core machine,
   with not a single fan-out run).  Results are pool-width-independent
   (the jobs=4 ≡ jobs=1 differential law), so clamping changes no
   output — on a 1-core machine [--jobs 4] simply runs sequentially,
   with no pool at all.  Tests force the full requested width — their
   differential pins must exercise real cross-domain execution even on
   a 1-core machine, and the per-slot metric splits they pin are only
   machine-independent at full width — via {!force_parallel} /
   CORECHASE_FORCE_PAR=1. *)
let requested = ref 1

let forced = ref false

let effective_width n = if !forced then n else min n (max 1 cores)

let jobs () = !requested

let oversubscribed () = effective_width !requested < !requested

let apply_width () =
  let w = effective_width !requested in
  let cur = match !current with None -> 1 | Some p -> Pool.jobs p in
  if w <> cur then begin
    (match !current with
    | Some p ->
        current := None;
        Pool.shutdown p
    | None -> ());
    if w > 1 then current := Some (Pool.create ~jobs:w)
  end

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: jobs must be >= 1";
  requested := min n max_jobs;
  apply_width ()

let force_parallel b =
  forced := b;
  apply_width ()

let with_jobs n f =
  let saved = jobs () in
  set_jobs n;
  Fun.protect ~finally:(fun () -> set_jobs saved) f

let sequential () =
  match !current with
  | None -> true
  | Some _ -> !busy || Obs.Metrics.slot () <> 0

(* Chunking width: at most [chunk_factor × jobs] chunks per batch, so a
   large fan-out (a trigger list in the thousands) hands each worker a
   handful of multi-item chunks instead of thousands of single-item
   closures — per item the pool then costs an array read and a strided
   increment, not a closure allocation and a batch-queue slot.  The
   factor keeps more chunks than workers so a slow chunk still overlaps
   the others' progress. *)
let chunk_factor = 8

(* Run [tasks] as one batch on [p], returning results by index.  Each
   task writes its own slot of [out]/[exns]; the pool barrier orders
   those writes before the reads below.  The lowest-index exception is
   re-raised — the one the sequential run would have hit first.

   Tasks are grouped into strided chunks — chunk [c] runs tasks
   [c, c + nchunks, c + 2·nchunks, …] — with [nchunks] either [n]
   itself (small batches: chunk = task, exactly the ungrouped
   behaviour) or a multiple of [jobs].  Either way task [i] still runs
   on slot [(i mod nchunks) mod jobs = i mod jobs], so the static
   task-to-domain assignment — and with it the per-domain counter
   split of [Obs.Metrics] — is byte-identical to the unchunked
   fan-out. *)
let run_all p ~site (tasks : (unit -> 'a) array) : 'a array =
  Resilience.Fault.hit "par";
  let n = Array.length tasks in
  let out : 'a option array = Array.make n None in
  let exns : exn option array = Array.make n None in
  let nchunks = min n (chunk_factor * Pool.jobs p) in
  (* Each task polls the ambient resilience token on its own domain
     before running: a tripped deadline/cancellation is captured like any
     other task exception and re-raised after the barrier, so a [--jobs N]
     run stops within one fan-out wave of the deadline (DESIGN.md §11). *)
  let chunks =
    Array.init nchunks (fun c () ->
        let i = ref c in
        while !i < n do
          (match
             Resilience.poll ();
             tasks.(!i) ()
           with
          | y -> out.(!i) <- Some y
          | exception e -> exns.(!i) <- Some e);
          i := !i + nchunks
        done)
  in
  if !Obs.Metrics.enabled then begin
    Obs.Metrics.incr m_fanouts;
    Obs.Metrics.add m_tasks n
  end;
  if Obs.Trace.enabled () then
    Obs.Trace.emit (Obs.Trace.Par_fanout { site; tasks = n; jobs = Pool.jobs p });
  busy := true;
  Fun.protect ~finally:(fun () -> busy := false) (fun () -> Pool.run p chunks);
  Array.iter (function Some e -> raise e | None -> ()) exns;
  Array.map (function Some y -> y | None -> assert false) out

(* worth fanning out? (n >= 2 and an idle pool on the main domain) *)
let pool_for n =
  if n < 2 || !busy || Obs.Metrics.slot () <> 0 then None else !current

let map ?(site = "par.map") f xs =
  match pool_for (List.length xs) with
  | None -> List.map f xs
  | Some p ->
      let arr = Array.of_list xs in
      Array.to_list (run_all p ~site (Array.map (fun x () -> f x) arr))

let iter ?(site = "par.iter") f xs =
  match pool_for (List.length xs) with
  | None -> List.iter f xs
  | Some p ->
      let arr = Array.of_list xs in
      ignore (run_all p ~site (Array.map (fun x () -> f x) arr))

let rec take_wave k acc = function
  | rest when k = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | x :: rest -> take_wave (k - 1) (x :: acc) rest

let find_first_map ?(site = "par.find") f xs =
  match pool_for (List.length xs) with
  | None -> List.find_map f xs
  | Some p ->
      let wave = 2 * Pool.jobs p in
      let rec go = function
        | [] -> None
        | xs -> (
            Resilience.poll ();
            let items, rest = take_wave wave [] xs in
            let results =
              match items with
              | [ x ] -> [| f x |]
              | _ ->
                  run_all p ~site
                    (Array.map (fun x () -> f x) (Array.of_list items))
            in
            match Array.find_map Fun.id results with
            | Some _ as r -> r
            | None -> go rest)
      in
      go xs

let map_reduce ?(site = "par.map_reduce") ~map:f ~reduce ~init xs =
  List.fold_left reduce init (map ~site f xs)

(* ------------------------------------------------------------------ *)
(* Batch: the throughput layer (DESIGN.md §14).  N independent tasks
   claimed dynamically across the pool, each run under per-task
   isolation so the result array is byte-identical to a sequential
   loop over the tasks — at any pool width, on any schedule. *)

module Batch = struct
  (* Instruments are registered lazily, on the first [run]: single-chase
     processes keep their metrics tables (cram-pinned) unchanged. *)
  let m_runs = lazy (Obs.Metrics.counter "par.batch.runs")

  let m_batch_tasks = lazy (Obs.Metrics.counter "par.batch.tasks")

  (* Dynamic claiming means these two record scheduling facts: they are
     deterministic in total per run only on a 1-wide pool.  They are
     throughput diagnostics, not determinism-pinned counters. *)
  let m_steal = lazy (Obs.Metrics.counter "par.steal")

  let g_queue_depth = lazy (Obs.Metrics.gauge "par.queue_depth")

  (* Run one task under full isolation:
     - [Term.with_local_counter] gives the task a private fresh-var
       counter starting at 0, so it mints exactly the ranks a
       sequential loop would;
     - [Resilience.with_task_scope] gives it a private ambient-token
       cell seeded with the process-wide token of the submission, so
       engines inside install/poll their own deadlines without
       clobbering sibling tasks;
     - [Obs.Trace.with_muted] silences engine events for the task body
       (placement-dependent interleaving); the batch emits
       deterministic [Batch_task] summaries after the barrier instead.
     A task failure is its own [Error] — sibling tasks are unaffected. *)
  let isolated ?token (f : unit -> 'a) : ('a, exn) result =
    let token =
      match token with Some _ as t -> t | None -> Resilience.ambient ()
    in
    Syntax.Term.with_local_counter (fun () ->
        Resilience.with_task_scope ?token (fun () ->
            Obs.Trace.with_muted (fun () ->
                match f () with v -> Ok v | exception e -> Error e)))

  let run ?(site = "par.batch") ?tokens (tasks : (unit -> 'a) array) :
      ('a, exn) result array =
    let n = Array.length tasks in
    (match tokens with
    | Some a when Array.length a <> n ->
        invalid_arg "Par.Batch.run: tokens array length mismatch"
    | _ -> ());
    (* per-task token override (DESIGN.md §15): the server runs one
       batch of entailment readers where each task belongs to a
       different connection, so each runs under its own token scope;
       a [None] entry falls back to the submission's ambient token *)
    let token_of i =
      match tokens with None -> None | Some a -> a.(i)
    in
    (* One injected-fault opportunity per submitted task, decided on the
       caller in submission order — so a [par:k:kind] fault spec lands on
       the same task at every pool width (the [Fault] hit counters are
       process-wide; letting racing workers take the hits would make the
       fault placement schedule-dependent). *)
    let faults =
      Array.map
        (fun _ ->
          match Resilience.Fault.hit "par" with
          | () -> None
          | exception e -> Some e)
        tasks
    in
    let slots = Array.make n 0 in
    let durs = Array.make n 0. in
    let timed i task =
      let t0 = Unix.gettimeofday () in
      let r =
        match faults.(i) with
        | Some e -> Error e
        | None -> isolated ?token:(token_of i) task
      in
      durs.(i) <- Unix.gettimeofday () -. t0;
      r
    in
    if !Obs.Metrics.enabled && n > 0 then begin
      Obs.Metrics.incr (Lazy.force m_runs);
      Obs.Metrics.add (Lazy.force m_batch_tasks) n
    end;
    let out =
      match pool_for n with
      | None -> Array.mapi timed tasks
      | Some p ->
          let jobs = Pool.jobs p in
          (* forced on the caller before the fan-out: workers must never
             race on forcing a lazy *)
          let steal = Lazy.force m_steal in
          let depth = Lazy.force g_queue_depth in
          let results : ('a, exn) result option array = Array.make n None in
          let next = Atomic.make 0 in
          (* Unlike a fan-out, tasks are claimed dynamically: whole
             chases have wildly uneven durations, and static striding
             would leave domains idle behind the slowest stripe.
             Isolation is what keeps the results placement-independent
             anyway, so staticness buys nothing here. *)
          let claim slot () =
            let continue = ref true in
            while !continue do
              let i = Atomic.fetch_and_add next 1 in
              if i >= n then continue := false
              else begin
                if !Obs.Metrics.enabled then begin
                  Obs.Metrics.set depth (n - i - 1);
                  if i mod jobs <> slot then Obs.Metrics.incr steal
                end;
                slots.(i) <- slot;
                results.(i) <- Some (timed i tasks.(i))
              end
            done
          in
          let chunks = Array.init (min n jobs) claim in
          if Obs.Trace.enabled () then
            Obs.Trace.emit
              (Obs.Trace.Par_fanout { site; tasks = n; jobs });
          busy := true;
          Fun.protect
            ~finally:(fun () -> busy := false)
            (fun () -> Pool.run p chunks);
          Array.map
            (function Some r -> r | None -> assert false)
            results
    in
    if Obs.Trace.enabled () then
      Array.iteri
        (fun i _ ->
          Obs.Trace.emit
            (Obs.Trace.Batch_task
               {
                 site;
                 index = i;
                 slot = slots.(i);
                 ms = int_of_float (durs.(i) *. 1000.);
               }))
        out;
    out

  let map ?site f xs =
    Array.to_list (run ?site (Array.of_list (List.map (fun x () -> f x) xs)))
end

(* CORECHASE_JOBS sizes the pool at startup; --jobs can override later.
   Malformed values fall back to 1 (sequential) rather than failing the
   whole process. *)
let () =
  (match Sys.getenv_opt "CORECHASE_FORCE_PAR" with
  | Some ("1" | "true" | "yes") -> forced := true
  | _ -> ());
  (match Sys.getenv_opt "CORECHASE_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> set_jobs n
      | _ -> ())
  | None -> ());
  at_exit (fun () -> try set_jobs 1 with _ -> ())
