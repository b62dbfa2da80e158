(* Shared pieces of the benchmark: the clock, the host-speed reference
   kernel and calibration, seeded randomness, summary statistics and the
   result line. *)

let now () = Unix.gettimeofday ()

let ms_since t0 = (now () -. t0) *. 1000.

(* {1 Host-speed calibration}

   A fixed reference kernel is timed in this process immediately before
   and after every timed job, and each timing is reported scaled by
   [nominal_ref_ms] over the mean of the two: on a host whose speed
   drifts by tens of percent between (and within) runs, the ratio of
   timings taken back to back is far steadier than either timing.  The kernel must not
   keep long-lived data: its live set (one 1500-entry map) stays far
   below the minor heap, so its cost does not depend on the size of the
   program's major heap.  See README.md for the evidence. *)

module Int_map = Map.Make (Int)

(* The reference value timings are scaled to.  Fixed forever: changing
   it rescales every reported timing. *)
let nominal_ref_ms = 4.0

let ref_sink = ref 0

let ref_kernel_ms () =
  Gc.minor ();
  let t0 = now () in
  for round = 1 to 12 do
    let m = ref Int_map.empty in
    let x = ref round in
    for i = 1 to 1500 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      m := Int_map.add !x i !m
    done;
    ref_sink := !ref_sink + Int_map.cardinal !m
  done;
  ms_since t0

(* The raw reference timings of this run, for the host record. *)
let ref_samples : float list ref = ref []

(* Time the reference kernel, recording the sample. *)
let take_ref () =
  let r = ref_kernel_ms () in
  ref_samples := r :: !ref_samples;
  r

(* The factor calibrating work bracketed by two reference timings. *)
let factor_of before after = nominal_ref_ms /. ((before +. after) /. 2.)

(* The reference timing taken at the end of the previous [timed] job; it
   is also the timing before the next one, as only bookkeeping runs in
   between. *)
let carried = ref None

(* [timed f] brackets [f] between two reference-kernel timings and
   returns [f]'s result, its raw duration in ms and its calibration
   factor. *)
let timed f =
  let before = match !carried with Some r -> r | None -> take_ref () in
  let t0 = now () in
  let v = f () in
  let raw = ms_since t0 in
  let after = take_ref () in
  carried := Some after;
  (v, raw, factor_of before after)

(* {1 Seeded randomness} — the inputs are a pure function of [--seed] *)

let rng seed = Random.State.make [| 0x5eed; seed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* {1 Statistics} *)

(* Linear-interpolated quantile of a sample, [q] in [0,1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

(* Inter-quartile range as a percentage of the median. *)
let spread_pct xs =
  let m = median xs in
  if m = 0. then 0. else 100. *. (quantile 0.75 xs -. quantile 0.25 xs) /. m

(* {1 Process memory} *)

(* Peak resident set size (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* {1 Outcome accounting and the result line} *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* Count one checked operation; [Error] messages go to stderr. *)
let check t what = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      Printf.eprintf "check failed: %s: %s\n%!" what msg

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let result_line t (metrics : (string * float * string) list) =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0 && t.attempted > 0)
    t.attempted t.failed (String.concat ", " m)

(* The host record printed beside every run's metrics: the raw
   reference-kernel time, its median and in-run spread.  Informational —
   a run is never dropped or repeated because of it. *)
let host_line () =
  let xs = !ref_samples in
  Printf.sprintf "host.ref_ms p50=%.4f spread_pct=%.2f samples=%d" (median xs)
    (spread_pct xs) (List.length xs)
