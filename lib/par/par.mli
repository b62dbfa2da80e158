(** Deterministic domain-pool parallelism (DESIGN.md §10, §14).

    A process-wide pool of OCaml 5 domains plus fan-out combinators whose
    results are {e independent of the schedule}: [map]/[map_reduce] merge
    in input order, [find_first_map] returns the first-by-index success
    (exactly what the sequential [List.find_map] returns), and task
    [i] of a batch always runs on slot [i mod jobs] (static round-robin,
    the caller participating as slot 0) so even the per-domain metric
    split of {!Obs.Metrics} is reproducible.

    Workers are fed through persistent per-domain worklists: submitting
    a fan-out costs one plain store and one atomic store per active
    worker (plus a condition signal only for workers that are parked),
    not a process mutex and condition broadcasts — see DESIGN.md §14
    for the protocol and the memory-model argument.

    {!Batch} is the throughput layer on the same pool: N independent
    tasks (whole chases, entailment queries) claimed dynamically, each
    under per-task isolation, with results in submission order.

    With [jobs = 1] (the default) no pool exists and every combinator is
    {e definitionally} its sequential counterpart — no extra allocation,
    no trace events, no counters — so single-job runs are byte-identical
    to pre-pool builds.

    Sizing: [CORECHASE_JOBS] in the environment at startup, or
    {!set_jobs} / the CLI's [--jobs N] at runtime.

    Reentrancy: a combinator called from inside a running batch (from a
    worker, or from the caller's own slice) degrades to the sequential
    path rather than deadlocking on the single batch slot. *)

val max_jobs : int
(** Hard cap on the pool width (64 workers + the caller). *)

val jobs : unit -> int
(** The requested parallelism width ([1] by default).  The pool itself
    runs at [min (jobs ()) cores] unless forced ({!oversubscribed}). *)

val set_jobs : int -> unit
(** Request a parallelism width: tears down a running pool of the wrong
    width (joining its domains) and spawns the new one; [set_jobs 1]
    just tears down.  A no-op when the width is unchanged.  Values
    above {!max_jobs} are clamped; the pool is additionally clamped to
    the core count unless {!force_parallel} is on — see
    {!oversubscribed}.  @raise Invalid_argument when [n < 1]. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** Run the thunk under [set_jobs n], restoring the previous width
    afterwards (also on exceptions).  Test harness convenience. *)

val sequential : unit -> bool
(** [true] when a combinator called here and now would run its
    sequential path: no pool (including a clamped-to-1 request, see
    {!oversubscribed}), a worker domain, or a batch in flight. *)

val oversubscribed : unit -> bool
(** [true] when the requested width exceeds the machine
    ([jobs () > Domain.recommended_domain_count ()]) and the clamp is
    active: the pool runs at the core count instead — time-shared
    surplus domains can never beat a narrower pool, each fan-out would
    still pay their wake-ups, and merely keeping them alive taxes every
    minor collection with stop-the-world synchronisation.  Results are
    pool-width-independent (the jobs=4 ≡ jobs=1 differential law), so
    the clamp changes no output; on a 1-core machine [--jobs 4] runs
    sequentially with no pool at all. *)

val force_parallel : bool -> unit
(** Lift the oversubscription clamp: with [force_parallel true] (or
    [CORECHASE_FORCE_PAR=1] in the environment at startup) the pool
    runs at the full requested width.  The differential test layer uses
    this so jobs=4 ≡ jobs=1 pins — and the per-slot metric splits the
    cram layer pins, which are only machine-independent at full width —
    exercise real cross-domain execution even on a 1-core machine.
    Resizes the pool if needed; do not call mid-batch. *)

(** {1 Deterministic fan-out combinators}

    [site] names the fan-out point in [Par_fanout] trace events and is
    free-form ("trigger.satcheck", "tw.branch", …).  Exceptions raised
    by tasks are re-raised in the caller — the lowest-index failing
    task wins, again matching sequential order. *)

val map : ?site:string -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map]. *)

val iter : ?site:string -> ('a -> unit) -> 'a list -> unit
(** Parallel [List.iter]; all tasks complete before it returns. *)

val find_first_map : ?site:string -> ('a -> 'b option) -> 'a list -> 'b option
(** Parallel [List.find_map] with sequential-first-success semantics:
    items are evaluated in waves of [2 × jobs]; within each wave all
    items run, and the lowest-index [Some] wins.  Later waves are not
    started once a wave succeeds, so early successes still prune —
    at the price of (at most one wave of) extra evaluations relative
    to the sequential early exit. *)

val map_reduce :
  ?site:string ->
  map:('a -> 'b) ->
  reduce:('c -> 'b -> 'c) ->
  init:'c ->
  'a list ->
  'c
(** [map] in parallel, then fold the results {e in input order} on the
    caller: [map_reduce ~map ~reduce ~init [x1; …; xn]] equals
    [reduce (… (reduce init (map x1)) …) (map xn)] exactly. *)

(** {1 The pool itself}

    Exposed for callers that want to drive raw batches; the combinators
    above are the intended interface. *)
module Pool : sig
  type t

  val create : jobs:int -> t
  (** Spawn [jobs - 1] worker domains (slot [k] pinned via
      [Obs.Metrics.set_slot k]).  @raise Invalid_argument when
      [jobs < 2]. *)

  val jobs : t -> int

  val run : t -> (unit -> unit) array -> unit
  (** Execute one batch: chunk [i] runs on slot [i mod jobs], the caller
      executing slot 0's chunks itself; returns when every chunk has.
      Only the workers owning a nonempty slice are woken.  Between a
      slot's chunks the ambient cancellation token is polled; a raise —
      from a chunk or from the poll — is recorded (first one wins), the
      barrier still completes, and the exception is re-raised here, so
      a failure never leaves the batch protocol out of sync.  The
      combinators wrap payloads so their chunks only raise via the
      poll.  Batches must not be nested. *)

  val shutdown : t -> unit
  (** Stop and join the workers.  The pool must not be used after. *)
end

(** {1 Batched throughput}

    The realistic server load is many {e independent} jobs, not one wide
    fan-out.  [Batch] runs N tasks across the pool with {e dynamic}
    claiming — whole chases have wildly uneven durations, and static
    striding would idle domains behind the slowest stripe — which is
    sound because each task runs under per-task isolation (DESIGN.md
    §14): a private fresh-variable counter starting at 0
    ({!Syntax.Term.with_local_counter}), a private ambient-token scope
    seeded from the submission's token ({!Resilience.with_task_scope}),
    and a muted trace ({!Obs.Trace.with_muted}).  Consequently the result
    array is byte-identical to a sequential loop over the tasks, in
    submission order, at any pool width.

    Instruments (registered on first use): [par.batch.runs],
    [par.batch.tasks] counters; [par.steal] / [par.queue_depth] record
    scheduling facts (claims off a task's home stripe, tasks left at
    claim time) and are diagnostics, not determinism-pinned values.
    With tracing on, one {!Obs.Trace.event.Batch_task} summary per task
    is emitted after the barrier, in submission order. *)
module Batch : sig
  val run :
    ?site:string ->
    ?tokens:Resilience.Token.t option array ->
    (unit -> 'a) array ->
    ('a, exn) result array
  (** [run tasks] executes every task and returns per-task outcomes in
      submission order.  A task's exception is its own [Error] — sibling
      tasks are unaffected.  Nested calls (from inside a task, or from a
      fan-out) degrade to the isolated sequential loop, as does
      [jobs = 1]; the observable results are identical by construction.
      Fault injection: one [par]-site hit opportunity per submitted
      task, decided on the caller in submission order, so a [par:k:kind]
      spec disables the same task at every width.

      [tokens] (same length as [tasks]) seeds task [i]'s private token
      scope with [tokens.(i)] instead of the submission's ambient token
      ([None] entries keep the ambient fallback) — the server uses this
      to run one batch of entailment readers where every task answers a
      different connection, each cancellable on its own (DESIGN.md §15).
      @raise Invalid_argument on a length mismatch. *)

  val map : ?site:string -> ('a -> 'b) -> 'a list -> ('b, exn) result list
  (** List convenience over {!run}. *)
end
