(** The write-ahead log manager (DESIGN.md §16).

    A WAL directory holds append-only segments of typed {!Record.t}
    frames ([wal-%016d.xlog], named by first LSN) plus atomic binary
    snapshots ([snap-%016d.snap], named by the LSN they cover), after
    tarantool's xlog/snapshot discipline.  Opening the directory
    recovers: latest valid snapshot, then every segment frame beyond
    it.  A torn final record — an incomplete or checksum-failed frame
    ending exactly at the end of the last segment — is the signature of
    a crash mid-write: it is truncated with a warning and the log
    resumes from the last durable record.  Anything else (mid-file
    checksum failure, LSN gap, torn non-final segment, torn snapshot)
    is corruption and yields a structured [Error]: the log never
    guesses at what was durable.

    Counter discipline: {!recover} replays records that mint variable
    ids and read generation stamps, so the KB must be parsed {e before}
    calling it.  {!peek_header} is safe before the KB parse (the header
    record builds no terms).

    Fault sites for the kill/resume harness (DESIGN.md §11): [wal]
    fires between a frame's write and its fsync, [snap] between a
    snapshot's temp-file write and its rename. *)

(** When appends reach the disk. *)
type sync_policy =
  | Sync_none  (** never fsync (fastest; a crash can lose a suffix) *)
  | Sync_every  (** fsync after every record (the durability default) *)
  | Sync_interval of int  (** fsync every [n] records *)

val sync_policy_of_string : string -> (sync_policy, string) result
(** ["none"], ["every"] or ["interval:N"] (N > 0). *)

val sync_policy_to_string : sync_policy -> string

type t

val open_dir :
  ?sync:sync_policy ->
  ?snapshot_every:int ->
  ?quiet:bool ->
  string ->
  (t, string) result
(** Open (creating if needed) a WAL directory and recover its contents.
    [sync] defaults to [Sync_every]; [snapshot_every] is the
    {!maybe_snapshot} cadence (0, the default, disables automatic
    snapshots); [quiet] suppresses the torn-tail warning on stderr.
    Removes leftover snapshot temp files; truncates a torn tail in the
    final segment; refuses mid-file corruption with [Error].  An empty
    directory stays empty until the first {!append} creates the first
    segment. *)

val dir : t -> string

val is_empty : t -> bool
(** No durable record: a freshly created directory. *)

val had_torn_tail : t -> bool
(** Whether {!open_dir} truncated a torn final record. *)

val append : t -> Record.t -> unit
(** Append one record as the next-LSN frame and apply the sync policy.
    @raise Invalid_argument after {!close}. *)

val sync : t -> unit
(** Force an fsync of the current segment (no-op after {!close}). *)

val close : t -> unit
(** Final sync and close the segment writer.  Idempotent. *)

val write_snapshot : t -> Record.t list -> unit
(** Write the records as a snapshot covering every LSN appended so far
    (tmp + rename), then rotate to a fresh segment.  No-op when the log
    or the record list is empty.  Old segments are retained — the log
    never deletes data it once called durable. *)

val maybe_snapshot : t -> (unit -> Record.t list) -> unit
(** Count one snapshot-cadence tick (a completed round for the chase,
    an operation for the serve daemon) and {!write_snapshot} the
    thunk's records every [snapshot_every] ticks. *)

(** {1 Recovery} *)

val records : t -> (Record.t list, string) result
(** Decode every recovered record in order (snapshot records first,
    then the log tail) — the serve daemon's replay input. *)

type chase_header = {
  h_engine : string;
  h_kb_path : string option;
  h_kb_digest : string option;
  h_budget : Chase.Variants.budget;
}

val peek_header : t -> (chase_header option, string) result
(** Decode only the run-header record ([Ok None] when the log is
    empty).  Safe before the KB is parsed. *)

(** What the log already holds, so a resumed run's journal sink can
    skip re-appending records that are durable (the kill may have hit
    {e after} an append but {e before} the round boundary the engine
    resumes from). *)
type durable = {
  d_last_step : int;  (** highest durable step index; -1 when none *)
  d_tail_retract : bool;  (** the last durable record is a [Retract] *)
  d_rounds : int;  (** rounds whose [Round] record is durable *)
  d_has_start : bool;  (** σ₀ (or a snapshot step 0) is durable *)
}

val no_durable : durable
(** For a fresh log (nothing to skip). *)

type recovered = {
  r_header : chase_header;
  r_state : Chase.Variants.engine_state option;
      (** the last durable round boundary; [None] when the crash
          happened before the first completed round (re-run from
          scratch — the header's pinned counters make the re-execution
          mint identical nulls) *)
  r_durable : durable;
  r_records : int;
  r_torn : bool;
}

val recover : t -> Syntax.Kb.t -> (recovered, string) result
(** Replay a chase log to the state of the interrupted run: rebuild
    the derivation step by step, then cut at the last durable [Round]
    boundary and pin the [Term] counter recorded there (or at the
    header when no round completed).  The KB must be the run's KB,
    parsed before this call.  Structured [Error] on an empty log,
    undecodable or out-of-order records (a format-1 log's retired
    [Begin]/[Round] tags among them), or session records. *)

(** {1 The chase-side hook} *)

val digest_of_file : string -> string option
(** Hex MD5 of a file's contents; [None] if unreadable.  The run header
    records it for the KB document, so [corechase resume] can refuse a
    KB that changed since the log was written. *)

val journal :
  t ->
  engine:string ->
  ?kb_path:string ->
  budget:Chase.Variants.budget ->
  ?durable:durable ->
  unit ->
  Chase.Variants.journal
(** The per-step journal sink for [Chase.run ?journal]: appends a
    header (recording [kb_path] and its {!digest_of_file}) + σ₀ on first
    use, then one record per {!Chase.Variants.journal_event}.  On every
    [J_round] it also counts one {!maybe_snapshot} tick, serializing the
    round's engine state as a snapshot (header, one [Snap_step] per
    derivation step, the [Round] boundary).  Pass the {!recover}ed
    [durable] summary when resuming so already-durable records are not
    re-appended. *)
