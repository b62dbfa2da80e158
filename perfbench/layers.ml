(* Per-layer accounting for the traced run (--trace 1).

   Layer times come from the benchmark's own calls into each layer's
   public functions, scaled by the calibration factor of the job they
   ran in ({!flush}); the chase engine's time is split further by stamping the
   engine's existing trace events through a [Trace.Custom] sink.  Counts
   are deltas of [Obs.Metrics.counters ()] over the measured phase.
   With tracing off every function here is a plain call. *)

let on = ref false

(* calibrated totals, and the raw times of the job in progress *)
let totals : (string, float) Hashtbl.t = Hashtbl.create 32
let pending : (string, float) Hashtbl.t = Hashtbl.create 32

let bump tbl name v =
  Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.)

let add name v = bump pending name v

(* Count [n] events of [name] when tracing (not a time: never scaled). *)
let count name n = if !on then bump totals name (float_of_int n)

let get name = Option.value (Hashtbl.find_opt totals name) ~default:0.

(* Close a job: its raw layer times enter the totals scaled by [k]. *)
let flush k =
  Hashtbl.iter (fun name v -> bump totals name (v *. k)) pending;
  Hashtbl.reset pending

(* Raw ms of [f], added to [name] when tracing. *)
let time name f =
  if not !on then f ()
  else begin
    let t0 = Common.now () in
    Fun.protect f ~finally:(fun () -> add name (Common.ms_since t0))
  end

(* The chase split.  Per round the engine discovers the active triggers
   (ending in [Trigger_found]), then applies them one by one (each
   application, with its per-application simplification, ends in
   [Trigger_applied]; a round-end retraction ends in [Retract]).  The
   time up to [Trigger_found] is discovery, the rest of the round is
   application.  Only events of a chase run through {!chase} count. *)
let last_event = ref 0.

let in_chase = ref false

let sink =
  Obs.Trace.Custom
    (fun ev ->
      if !in_chase then begin
        let t = Common.now () in
        let dt = (t -. !last_event) *. 1000. in
        let charge name =
          add name dt;
          last_event := t
        in
        match ev with
        | Obs.Trace.Trigger_found _ -> charge "chase.discover_ms"
        | Obs.Trace.Round_start _ | Obs.Trace.Trigger_applied _
        | Obs.Trace.Retract _ ->
            charge "chase.apply_ms"
        | _ -> ()
      end)

(* Run one chase-engine call, charging its total to [chase.engine_ms]
   and its phases to the split above. *)
let chase f =
  if not !on then f ()
  else begin
    in_chase := true;
    last_event := Common.now ();
    Fun.protect
      ~finally:(fun () -> in_chase := false)
      (fun () -> time "chase.engine_ms" f)
  end

(* Start tracing: enable the metrics registry and install the sink. *)
let start () =
  on := true;
  Obs.Metrics.enabled := true;
  Obs.Trace.set_sink sink

let stop () =
  on := false;
  Obs.Metrics.enabled := false;
  Obs.Trace.set_sink Obs.Trace.Null

(* Counter deltas between two [Obs.Metrics.counters ()] readings. *)
let delta before after name =
  let find l = Option.value (List.assoc_opt name l) ~default:0 in
  find after - find before

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
