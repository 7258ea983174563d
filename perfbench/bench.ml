(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload, checks its outputs, and prints the metrics by
   name and unit.  The last line of standard output is one JSON object
   with the keys correct, attempted, failed and metrics: with --trace 0
   the end-to-end metrics, with --trace 1 the per-layer ones.  The exit
   code is 0 only when every check passed. *)

open Util

(* The metric names and units of BENCHMARK.json.  The runner compares
   them with the file, so the two cannot drift apart. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("result_s", "s");
    ("space_words", "words");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("stream.gen_s", "s");
    ("spanner.derive_ms", "ms");
    ("spanner.pass1_ms", "ms");
    ("spanner.pass2_ms", "ms");
    ("spanner.pass_updates_per_s", "updates/s");
    ("spanner.clustering_ms", "ms");
    ("spanner.extract_ms", "ms");
    ("spanner.decode_failures", "count");
    ("spanner.recovered_edges", "edges");
    ("stretch.check_s", "s");
    ("sparsify.ingest_ms", "ms");
    ("sparsify.ship_ms", "ms");
    ("sparsify.ship_bytes", "bytes");
    ("sparsify.merge_ms", "ms");
    ("sparsify.decode_ms", "ms");
    ("sparsify.chain_steps", "count");
    ("sparsify.chain_edges", "edges");
    ("pencil.check_s", "s");
    ("client.encode_us", "us");
    ("serve.frame_bytes", "bytes");
    ("serve.feed_us", "us");
    ("serve.drain_us", "us");
    ("serve.ack_us", "us");
    ("serve.checkpoint_ms", "ms");
    ("serve.checkpoint_bytes", "bytes");
    ("serve.query_us", "us");
    ("serve.recover_ms", "ms");
    ("serve.recover_streams", "count");
    ("serve.transport_us", "us");
    ("serve.queue_depth_max", "count");
    ("serve.overloaded_nacks", "count");
    ("client.retries", "count");
    ("client.reconnects", "count");
    ("gen.lag_ms", "ms");
    ("gc.major_words", "words");
    ("gc.minor_collections", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.overhead_iqr", "ratio");
    ("output_edges", "edges");
    ("stretch_max", "ratio");
    ("pencil_err", "ratio");
    ("capacity_updates_per_s", "updates/s");
    ("ingest_p50_ms", "ms");
    ("ingest_p99_ms", "ms");
    ("query_p50_ms", "ms");
    ("recovery_s", "s");
  ]

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rate FRAMES_PER_S]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

(* Only a checkout that is itself a git repository has a SHA; asking git
   elsewhere could name an enclosing repository. *)
let git_sha () =
  if not (Sys.file_exists ".git") then "unavailable"
  else
    match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unavailable"
    | ic -> (
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unavailable")

(* Digest of the library sources, so a result from a checkout that is
   not a git repository still names the code it measured. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || Filename.check_suffix p ".c" then [ p ]
           else [])
  in
  match files "lib" with
  | exception Sys_error _ -> "unavailable"
  | fs -> Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file fs)))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rate = ref 0.0 in
  let server = ref "" and obs = ref false and tamper = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--rate", Arg.Set_float rate, "offered ingest frames/s (serve workloads)");
      ("--server", Arg.Set_string server, "DIR  run as the server child of a serve workload");
      ("--obs", Arg.Set obs, " server child: enable the metrics registry");
      ( "--tamper",
        Arg.Set_string tamper,
        "TENANT/STREAM  server child: flip one byte of this stream" );
    ]
    (fun a -> die "unexpected argument %s" a)
    usage;
  if !server <> "" then begin
    Serve_load.serve_child ~dir:!server ~obs:!obs
      ~tamper:(if !tamper = "" then None else Some !tamper);
    exit 0
  end;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then die "%s" usage;
  (* The dev profile passes -opaque, which stops cross-module inlining
     and hides exactly the kernel gains this benchmark must show. *)
  if Build_profile.name <> "release" then
    die "built in the %s profile; results are only reported from the release profile"
      Build_profile.name;
  let trace = !trace = 1 and seed = !seed and seconds = float_of_int !seconds in
  Printf.printf
    "{\"env\":{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"git_sha\":\"%s\",\
     \"source_digest\":\"%s\",\"nproc\":%d,\"ocaml\":\"%s\",\"profile\":\"%s\"}}\n%!"
    !workload seed seconds trace (git_sha ()) (source_digest ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_profile.name;
  let outcome =
    match !workload with
    | "spanner_2pass" -> Batch.spanner ~seed ~seconds ~trace
    | "sparsify_1p" -> Batch.sparsify ~seed ~seconds ~trace
    | "serve_agm" ->
        if !rate <= 0.0 then die "%s needs --rate" !workload;
        Serve_load.run ~seed ~seconds ~trace ~rate:!rate
    | w -> die "unknown workload %S (spanner_2pass, sparsify_1p, serve_agm)" w
  in
  List.iter
    (fun (what, ok) -> Printf.printf "check %-4s %s\n" (if ok then "ok" else "FAIL") what)
    outcome.checks;
  List.iter (fun (n, v, u) -> Printf.printf "metric %-28s %.6g %s\n" n v u) outcome.metrics;
  let correct = List.for_all snd outcome.checks && outcome.failed = 0 in
  Printf.printf "failed_frac %.6g (%d of %d)\n"
    (float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted))
    outcome.failed outcome.attempted;
  let names = if trace then per_layer else end_to_end in
  let fields =
    List.map
      (fun (name, unit_) ->
        (* A layer that the workload does not run reads 0. *)
        let v =
          match List.find_opt (fun (n, _, _) -> n = name) outcome.metrics with
          | Some (_, v, u) when u = unit_ -> v
          | Some (_, _, u) -> die "metric %s measured in %s, declared in %s" name u unit_
          | None when trace -> 0.0
          | None -> die "workload %s did not measure %s" !workload name
        in
        if Float.is_nan v then die "metric %s is not a number" name;
        Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (json_number v) unit_)
      names
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    outcome.attempted outcome.failed (String.concat "," fields);
  exit (if correct then 0 else 1)
