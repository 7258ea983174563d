(* Timing, order statistics, process probes and trace rollups shared by
   the workloads.  Every timing uses the library's monotonic clock, so
   the figures here and the spans the library records share one time
   base. *)

let now_s () = Int64.to_float (Ds_obs.Clock.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks — the same estimator as
   Python's [statistics.quantiles(method="inclusive")]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let iqr xs = quantile xs 0.75 -. quantile xs 0.25

(* Nearest-rank percentile for latency samples: the value below which
   the fraction [q] of samples fall, never an interpolation between two
   observed latencies. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* [VmHWM] of [/proc/<pid>/status]: the peak resident set, in MB.  For
   a child, read it before the child is reaped. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

type gc_delta = { major_words : float; minor_collections : float }

let with_gc f =
  let before = Gc.quick_stat () in
  let r = f () in
  let after = Gc.quick_stat () in
  ( r,
    {
      major_words = after.Gc.major_words -. before.Gc.major_words;
      minor_collections =
        float_of_int (after.Gc.minor_collections - before.Gc.minor_collections);
    } )

(* Spans for one traced run of [f]: clear the ring, run, roll the spans
   up by name ({!Ds_obs.Trace_tree.rollups}).  The ring is sized so that
   nothing the run records is overwritten; a drop would make self times
   silently short, so it is an error. *)
let traced_rollup ~capacity f =
  Ds_obs.Trace.reset ~capacity ();
  Ds_obs.Trace.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Ds_obs.Trace.set_enabled false) f in
  if Ds_obs.Trace.dropped () > 0 then
    failwith
      (Printf.sprintf "trace ring overflow: %d spans dropped" (Ds_obs.Trace.dropped ()));
  let rollups =
    Ds_obs.Trace_tree.rollups (Ds_obs.Trace_tree.of_spans (Ds_obs.Trace.spans ()))
  in
  (r, fun name -> List.find_opt (fun r -> r.Ds_obs.Trace_tree.r_name = name) rollups)

(* Self and total time of all spans of one name in a rollup, ms, and
   their count; 0 when the name was not recorded. *)
let rollup_field field rollup name =
  match rollup name with Some r -> field r | None -> 0.0

let self_ms rollup name =
  rollup_field (fun r -> Int64.to_float r.Ds_obs.Trace_tree.r_self_ns /. 1e6) rollup name

let total_ms rollup name =
  rollup_field (fun r -> Int64.to_float r.Ds_obs.Trace_tree.r_total_ns /. 1e6) rollup name

let span_count rollup name =
  rollup_field (fun r -> float_of_int r.Ds_obs.Trace_tree.r_count) rollup name

(* Tracing overhead from interleaved untraced/traced pairs of the
   workload's headline repetition: the median and spread of the
   per-pair relative difference. *)
let overhead pairs =
  let ratios = List.map (fun (off, on) -> (on -. off) /. off) pairs in
  (median ratios, iqr ratios)

(* A metric as printed: name, value, unit. *)
type metric = string * float * string

(* %.17g keeps every digit the measurement has.  JSON has no infinity:
   a latency that never completed (a failed frame) prints as the largest
   finite double, above any limit. *)
let json_number v =
  if Float.is_nan v then invalid_arg "json_number: nan"
  else if not (Float.is_finite v) then Printf.sprintf "%.17g" (Float.copy_sign max_float v)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* What one workload run reports: its verdicts, the operations it
   attempted and failed, and every metric it measured. *)
type outcome = {
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Repetitions of the workload's timed job.  Untraced runs repeat it
   until [seconds] are spent; traced runs interleave untraced/traced
   pairs instead, so the pairs give the tracing overhead.  At least
   [min_reps] repetitions (or pairs) always run. *)
let repeat ~seconds ~min_reps f =
  let t0 = now_s () in
  let rec go i acc =
    if i >= min_reps && now_s () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* Set-up runs at least five times, so that two slow set-ups do not
   move the median, and again while it has used less than three seconds
   (fifteen times at most); [setup_s] is the median.  Each
   set-up builds the same inputs from the seed: all but the last are
   passed to [discard], the last is kept. *)
let setup_median ?(discard = ignore) f =
  let rec go n spent times prev =
    match prev with
    | Some x when n >= 5 && (spent >= 3.0 || n >= 15) -> (x, median times)
    | _ ->
        Option.iter discard prev;
        (* Each set-up starts from a compacted heap, not paying for the
           garbage of the one before. *)
        Gc.compact ();
        let x, dt = timed f in
        go (n + 1) (spent +. dt) (dt :: times) (Some x)
  in
  go 0 0.0 [] None
