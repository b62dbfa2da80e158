(** Typed trace-event stream for the chase engines (DESIGN.md §8).

    Instrumented code emits {!event} values into the current {!sink}.
    The default sink is {!Null}, and every emission site is written as

    {[ if Trace.enabled () then Trace.emit (Trigger_applied { ... }) ]}

    so with the null sink no event value is ever constructed — the
    overhead discipline is a branch per site, no allocation.

    If the environment variable [CORECHASE_TRACE] is set at startup, the
    initial sink is a JSONL sink appending to that file (used by CI to
    smoke-test the sink under the whole test suite). *)

(** The event taxonomy.  [engine] identifies the emitting engine
    ([restricted], [core], [core-round], [frugal], [stream], [egd],
    [oblivious], [skolem], or [chase] for engine-agnostic sites); [step]
    is the derivation step index; [size] the instance cardinality after
    the event. *)
type event =
  | Round_start of { engine : string; round : int; size : int }
      (** a saturation round begins on an instance of [size] atoms *)
  | Trigger_found of { engine : string; found : int; size : int }
      (** one discovery sweep returned [found] active triggers *)
  | Trigger_applied of {
      engine : string;
      step : int;
      rule : string;
      produced : int;
      size : int;
    }  (** a trigger fired: [produced] head atoms added *)
  | Retract of { engine : string; step : int; removed : int; size : int }
      (** a core/frugal simplification retracted [removed] atoms *)
  | Egd_merge of { engine : string; step : int; size : int }
      (** an EGD unified two terms *)
  | Hom_backtrack of { backtracks : int; src_atoms : int; tgt_atoms : int }
      (** one homomorphism search that dead-ended [backtracks] times *)
  | Core_scoped_fold of { candidates : int; folded : bool; size : int }
      (** one delta-scoped fold search over [candidates] candidate
          variables on an instance of [size] atoms; [folded] tells
          whether a fold fired (else the instance was certified a core
          without a full search — see DESIGN.md §9) *)
  | Tw_decomposed of { vertices : int; width : int; exact : bool }
      (** a tree decomposition / width bound was computed *)
  | Par_fanout of { site : string; tasks : int; jobs : int }
      (** the [Par] pool fanned [tasks] tasks out across [jobs] domains
          at the named fan-out site (DESIGN.md §10); emitted only when a
          batch actually runs in parallel, so [--jobs 1] streams are
          byte-identical to pre-pool runs *)
  | Batch_task of { site : string; index : int; slot : int; ms : int }
      (** a [Par.Batch] task finished: task [index] (submission order)
          ran to completion on pool slot [slot] in [ms] milliseconds.
          Emitted by the batch caller after the barrier, in submission
          order, so the event {e stream} is deterministic even though
          [slot]/[ms] record scheduling facts (DESIGN.md §14) *)
  | Deadline_hit of { engine : string; step : int }
      (** the run's wall-clock deadline fired at derivation step [step];
          the engine stopped cooperatively and returned its last
          consistent instance (DESIGN.md §11) *)
  | Session_event of { action : string; session : string; generation : int }
      (** a server KB session changed state (DESIGN.md §15): [action] is
          [opened], [loaded], [chased], [analyzed] or [closed];
          [generation] is the session's snapshot generation after the
          event (0 until a first chase completes) *)
  | Conn_event of { action : string; conn : int }
      (** a server connection changed state (DESIGN.md §15): [action] is
          [accepted], [closed], [protocol-error] or [accept-failed];
          [conn] is the per-process connection id ([-1] for
          [accept-failed], which has no connection yet) *)
  | Wal_rotate of { segment : string; lsn : int }
      (** the WAL rotated to a fresh segment file starting at [lsn]
          (after a snapshot; DESIGN.md §16) *)
  | Snapshot_written of { path : string; lsn : int; records : int }
      (** a binary snapshot covering every record up to [lsn] was
          written atomically (tmp + rename) to [path] *)
  | Recovery_replayed of { dir : string; records : int; torn : bool }
      (** a WAL directory was recovered: [records] durable records
          replayed; [torn] reports whether a torn final record (crash
          mid-write) was truncated on open *)

type sink =
  | Null  (** drop everything; {!enabled} is [false] *)
  | Console of Format.formatter  (** one pretty line per event *)
  | Jsonl of out_channel  (** one JSON object per line *)
  | Custom of (event -> unit)  (** callback (tests, custom collectors) *)

val set_sink : sink -> unit

val sink : unit -> sink

val enabled : unit -> bool
(** [true] iff the current sink is not {!Null} {e and} the caller is the
    main domain ([Metrics.slot () = 0]) {e and} the calling domain is
    not muted ({!with_muted}).  Emission sites must check this before
    constructing an event.  Pool workers always read [false]: their
    emissions would interleave schedule-dependently, so the trace
    stream stays a main-domain artefact (DESIGN.md §10). *)

val with_muted : (unit -> 'a) -> 'a
(** Run the thunk with emission muted on the calling domain.  Used by
    [Par.Batch] around task bodies — even the task placed on slot 0 —
    because which engine events a task would emit interleaves
    schedule-dependently; the batch layer emits deterministic
    {!event.Batch_task} summaries after its barrier instead
    (DESIGN.md §14).  The previous mute state is restored on exit. *)

val muted : unit -> bool
(** Whether emission is muted on the calling domain. *)

val emit : event -> unit
(** Deliver the event to the current sink (drops it on {!Null} and on
    worker domains). *)

val write : sink -> event -> unit
(** Deliver the event to the given sink, unconditionally and uncounted:
    the delivery half of {!emit}, for sinks that forward to another. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Run the thunk with the given sink, restoring the previous sink
    afterwards (also on exceptions). *)

val with_jsonl_file : string -> (unit -> 'a) -> 'a
(** {!with_sink} on a JSONL sink writing (truncating) the named file;
    the channel is flushed and closed afterwards. *)

val events_emitted : unit -> int
(** Number of events delivered to non-null sinks since startup (or the
    last {!reset_emitted}).  The null-sink discipline is testable as:
    run under {!Null} and observe this stays 0. *)

val reset_emitted : unit -> unit

(** {1 Serialisation} *)

val pp_event : Format.formatter -> event -> unit

val to_json : event -> string
(** One-line JSON object, e.g.
    [{"ev":"trigger_applied","engine":"core","step":3,"rule":"Rh1","produced":4,"size":12}]. *)

val of_json_line : string -> event option
(** Parse a line produced by {!to_json}; [None] on anything else.
    Round-trip law: [of_json_line (to_json e) = Some e]. *)
