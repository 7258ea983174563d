(* The sketch service under load.

   A child process (this executable in its server mode) runs
   [Server.run_unix]; this process holds one client connection.  Every
   ingest frame is pre-encoded during set-up, so the schedule is never
   throttled by encoding.  The run has four phases:

   - closed loop: repetitions of a fixed frame set, each timed from the
     first send to the last ack ([result_s]; capacity = updates / s);
   - open loop: frames due at the offered rate, each timed from its due
     time to its ack, with one query after every [query_every] frames;
   - kill -9 and restarts on the same store, each timed to the first
     answered query ([recovery_s], median of [restarts]);
   - [Loadgen.verify]: every stream bit-identical to the seeded mirror
     at its acked watermark, plus a negative control in which one byte
     of one recovered envelope is flipped and verify must notice.

   The traced run adds the per-layer numbers: the same frames driven
   in-process through the transport-agnostic server core
   ([Server.create/connect/feed/drain/take_output/checkpoint_now]) with
   spans around each call, and the server's own STAT rollup. *)

open Util
module Server = Ds_serve.Server
module Client = Ds_serve.Client
module Loadgen = Ds_serve.Loadgen
module Sframe = Ds_serve.Sframe
module Registry = Ds_serve.Registry
module Trace = Ds_obs.Trace

(* The traffic mix: graph-sketch streams whose ingest frames are whole
   LSK1 envelopes, so envelope absorb is the largest layer. *)
let tenants = 2
let streams_per_tenant = 4
let families = [ "agm"; "connectivity" ]

(* Vertices of each stream's graph. *)
let n = 16

(* Updates per ingest frame. *)
let batch = 8

(* Applied frames between checkpoints. *)
let checkpoint_every = 64
let zipf = 1.1
let query_every = 16
let restarts = 5
let overhead_pairs = 9

(* The closed loop runs repetitions of one checkpoint interval each, so
   every repetition pays exactly one checkpoint; its figure is the
   median repetition. *)
let closed_reps = 41

(* The open loop needs at least ten samples beyond p99. *)
let min_open_frames = 1100

(* The generator sleeps to within this margin of a due time, then spins.
   A wider margin spins a whole core, which the server and the kernel's
   fsync work then compete for. *)
let spin_margin_s = 0.0003

(* A run in which the generator's median lateness (over the frames it
   was free to send on time) exceeds this share of the median ingest
   latency measured the generator, not the server, and is refused. *)
let max_gen_lag_share = 0.1

(* ------------------------------------------------------------------ *)
(* Server processes                                                     *)
(* ------------------------------------------------------------------ *)

let rec rm_rf p =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p

let scratch_root = ".bench_tmp"

(* Scratch space lives in the checkout; the socket path is relative so
   it stays under the Unix-socket length limit wherever that is. *)
let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let d = Filename.concat scratch_root (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let config dir =
  { (Server.default_config ~dir) with Server.checkpoint_every; drain_per_tick = 64 }

let wait_listening socket_path =
  let deadline = now_s () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if now_s () > deadline then failwith "serve: server did not come up";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* Server children still running; killed at exit whatever the path out. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
        !live;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())

(* The server child: a fresh process running this executable in its
   server mode ({!serve_child}), so its peak RSS is its own and nothing
   of the benchmark's heap is inherited.  Its stdout goes to /dev/null
   so the benchmark's own stdout carries only result lines. *)
let start_server ?(obs = false) ?tamper dir =
  let socket_path = Filename.concat dir "sock" in
  (try Sys.remove socket_path with Sys_error _ -> ());
  let args =
    [ Sys.executable_name; "--server"; dir ]
    @ (if obs then [ "--obs" ] else [])
    @
    match tamper with
    | Some (s : Loadgen.stream_spec) -> [ "--tamper"; s.l_tenant ^ "/" ^ s.l_stream ]
    | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) null null Unix.stderr in
  Unix.close null;
  live := pid :: !live;
  wait_listening socket_path;
  (pid, socket_path)

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

let ok what = function Ok x -> x | Error m -> failwith (Printf.sprintf "serve: %s: %s" what m)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

type frame = { spec : Loadgen.stream_spec; sidx : int; payload : string; updates : int }

(* Frames of all streams in one stationary order: frame j of a stream
   with f frames sorts at (j + 1/2) / f, so every stretch of the order
   carries the same Zipf mix and each stream's frames stay in sequence. *)
let frame_order specs payloads =
  let items = ref [] in
  Array.iteri
    (fun i ps ->
      let f = Array.length ps in
      Array.iteri
        (fun j p ->
          let spec = specs.(i) in
          let lo = j * spec.Loadgen.l_batch in
          let updates = min spec.Loadgen.l_batch (Array.length spec.Loadgen.l_updates - lo) in
          let key = (float_of_int j +. 0.5) /. float_of_int f in
          items := (key, i, j, { spec; sidx = i; payload = p; updates }) :: !items)
        ps)
    payloads;
  List.sort (fun (ka, ia, ja, _) (kb, ib, jb, _) -> compare (ka, ia, ja) (kb, ib, jb)) !items
  |> List.map (fun (_, _, _, f) -> f)
  |> Array.of_list

(* The open loop runs for half of the run, or longer when p99 needs the
   frames. *)
let open_frames ~rate ~seconds = max min_open_frames (int_of_float (rate *. seconds /. 2.0))

let plan ~seed ~frames =
  let streams = tenants * streams_per_tenant in
  Loadgen.make ~families ~zipf ~seed ~tenants ~streams_per_tenant
    ~updates:((frames + (2 * streams)) * batch)
    ~n ~batch ()

let create_streams client plan =
  List.iter
    (fun (s : Loadgen.stream_spec) ->
      ignore
        (ok "create"
           (Client.create_stream client ~tenant:s.l_tenant ~stream:s.l_stream ~family:s.l_family
              ~n:s.l_n ~seed:s.l_seed)))
    plan.Loadgen.p_specs

(* Everything before the first timed frame: plan, pre-encoded frames,
   server start, connection, stream creation. *)
type setup = {
  p : Loadgen.plan;
  frames : frame array;
  encode_s : float;
  dir : string;
  pid : int;
  client : Client.t;
}

let setup ~seed ~needed ~obs =
  let p = plan ~seed ~frames:needed in
  let specs = Array.of_list p.Loadgen.p_specs in
  let payloads, encode_s =
    timed (fun () -> Array.map (fun s -> Array.of_list (Loadgen.batches s)) specs)
  in
  let frames = frame_order specs payloads in
  if Array.length frames < needed then failwith "serve: plan too small";
  let dir = fresh_dir () in
  let pid, socket_path = start_server ~obs dir in
  let client = Client.connect ~socket_path ~delay_unit:0.005 ~seed () in
  create_streams client p;
  { p; frames; encode_s; dir; pid; client }

let teardown s =
  Client.close s.client;
  kill9 s.pid;
  rm_rf s.dir

(* ------------------------------------------------------------------ *)
(* Socket phases                                                        *)
(* ------------------------------------------------------------------ *)

type counters = { mutable failed : int; mutable attempted : int; acked : int array }

let ingest s c (f : frame) =
  c.attempted <- c.attempted + 1;
  match
    Client.ingest s.client ~tenant:f.spec.Loadgen.l_tenant ~stream:f.spec.Loadgen.l_stream
      ~payload:f.payload
  with
  | Ok () ->
      c.acked.(f.sidx) <- c.acked.(f.sidx) + 1;
      true
  | Error _ ->
      c.failed <- c.failed + 1;
      false

let sleep_until t =
  let rec go () =
    let d = t -. now_s () in
    if d > spin_margin_s then (Unix.sleepf (d -. spin_margin_s); go ())
    else if d > 0.0 then go ()
  in
  go ()

type open_loop = {
  lat_ms : float list;  (** due -> ack; failed frames are [infinity] *)
  rtt_ms : float list;  (** send -> ack *)
  query_ms : float list;
  lag_ms : float list;  (** generator lateness when it was free to send *)
  queue_depth_max : int;
}

let stat_field json path =
  match Ds_util.Json.parse json with
  | Error _ -> None
  | Ok j -> Option.bind (Ds_util.Json.path path j) Ds_util.Json.to_float

let open_loop s c ~rate ~lo ~count ~poll_every =
  let lat = ref [] and rtt = ref [] and qs = ref [] and lag = ref [] and depth = ref 0 in
  let t0 = now_s () +. 0.01 in
  let free_at = ref t0 in
  for i = 0 to count - 1 do
    let f = s.frames.(lo + i) in
    let due = t0 +. (float_of_int i /. rate) in
    sleep_until due;
    let sent = now_s () in
    if !free_at <= due then lag := (1000.0 *. (sent -. due)) :: !lag;
    let acked = ingest s c f in
    let done_ = now_s () in
    lat := (if acked then 1000.0 *. (done_ -. due) else infinity) :: !lat;
    rtt := (1000.0 *. (done_ -. sent)) :: !rtt;
    if (i + 1) mod query_every = 0 then begin
      c.attempted <- c.attempted + 1;
      let q0 = now_s () in
      (match
         Client.query s.client ~tenant:f.spec.Loadgen.l_tenant ~stream:f.spec.Loadgen.l_stream
       with
      | Ok _ -> qs := (1000.0 *. (now_s () -. q0)) :: !qs
      | Error _ -> c.failed <- c.failed + 1)
    end;
    if poll_every > 0 && (i + 1) mod poll_every = 0 then begin
      match Client.stat s.client with
      | Ok json -> (
          match stat_field json [ "queue"; "depth" ] with
          | Some d -> depth := max !depth (int_of_float d)
          | None -> ())
      | Error _ -> ()
    end;
    free_at := now_s ()
  done;
  { lat_ms = !lat; rtt_ms = !rtt; query_ms = !qs; lag_ms = !lag; queue_depth_max = !depth }

let closed_rep s c ~lo ~count =
  let t0 = now_s () in
  for i = lo to lo + count - 1 do
    ignore (ingest s c s.frames.(i))
  done;
  now_s () -. t0

(* Restart on the same store after kill -9, timed from the spawn of the
   new server to the first answered query on a fresh connection. *)
let restart dir (probe : Loadgen.stream_spec) =
  let t0 = now_s () in
  let pid, socket_path = start_server dir in
  let client = Client.connect ~socket_path ~delay_unit:0.005 () in
  let answered = Result.is_ok (Client.query client ~tenant:probe.l_tenant ~stream:probe.l_stream) in
  let dt = now_s () -. t0 in
  Client.close client;
  (pid, dt, answered)

let ledger_lines s c =
  Array.to_list
    (Array.mapi
       (fun i spec -> Loadgen.ledger_line spec ~acked:c.acked.(i))
       (Array.of_list s.p.Loadgen.p_specs))

(* Flip one byte of a stream's recovered state, keeping the envelope
   well formed: the first byte from the middle of the body on whose flip
   (with the FNV-1a trailer recomputed) the envelope still loads and
   serializes back to exactly the flipped bytes. *)
let flip_one_byte (st : Registry.stream) =
  let module P = Ds_sketch.Linear_sketch.Packed in
  let env = P.serialize st.Registry.packed in
  let body_len = String.length env - 8 in
  let flipped pos =
    let b = Bytes.of_string (String.sub env 0 body_len) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    let payload = Bytes.to_string b in
    let tail = Ds_util.Wire.sink () in
    Ds_util.Wire.write_fixed64 tail (Ds_util.Wire.fnv1a64 payload);
    payload ^ Ds_util.Wire.contents tail
  in
  let rec try_from pos =
    if pos >= body_len then failwith "serve: no byte of the envelope can be flipped"
    else
      let env' = flipped pos in
      let scratch = P.clone_zero st.Registry.packed in
      match P.deserialize_result scratch env' with
      | Ok () when P.serialize scratch = env' -> P.deserialize_into st.Registry.packed env'
      | _ -> try_from (pos + 1)
  in
  try_from (body_len / 2)

(* Server mode: recover the store in [dir] and serve it until killed.
   [tamper] ("tenant/stream") flips one byte of that stream first — the
   negative control of verify. *)
let serve_child ~dir ~obs ~tamper =
  if obs then Ds_obs.Metrics.set_enabled true;
  let t = Server.create (config dir) in
  (match tamper with
  | None -> ()
  | Some ts -> (
      match String.split_on_char '/' ts with
      | [ tenant; stream ] -> (
          match
            Option.bind (Registry.find_tenant (Server.registry t) tenant) (fun tn ->
                Registry.find_stream tn stream)
          with
          | Some st -> flip_one_byte st
          | None -> failwith "serve: control stream missing")
      | _ -> failwith "serve: --tamper takes tenant/stream"));
  Server.run_unix t ~socket_path:(Filename.concat dir "sock") ~tick:0.001 ()

(* ------------------------------------------------------------------ *)
(* In-process server core, traced                                       *)
(* ------------------------------------------------------------------ *)

let responses out =
  let rec go pos acc =
    if pos >= String.length out then List.rev acc
    else
      match Ds_util.Wire.decode_frame_length ~max:max_int out ~pos with
      | Error _ -> failwith "serve core: bad response framing"
      | Ok len ->
          let h = Ds_util.Wire.frame_header_length in
          go (pos + h + len) (Sframe.decode_response (String.sub out (pos + h) len) :: acc)
  in
  go 0 []

let request r = Sframe.frame (Sframe.encode_request r)

type core = {
  ms : float;  (** the replay loop less its checkpoints, untraced or traced *)
  rollup : string -> Ds_obs.Trace_tree.rollup option;  (** traced replays only *)
  gc : gc_delta;
  ckpt_bytes : int;
  recover_streams : int;
}

(* Replay [frames] through a fresh in-process server: feed, drain and
   take the ack one frame at a time, a checkpoint every
   [checkpoint_every] frames by explicit call, a query after every
   [query_every] frames, and a recovery walk of the store at the end. *)
let core_replay (p : Loadgen.plan) frames ~traced =
  let dir = fresh_dir () in
  let cfg =
    { (config dir) with Server.checkpoint_every = max_int; drain_per_tick = 1 }
  in
  let t = Server.create cfg in
  let conn = Server.connect t in
  List.iter
    (fun (sp : Loadgen.stream_spec) ->
      Server.feed t conn
        (request
           (Sframe.Create
              {
                tenant = sp.l_tenant;
                stream = sp.l_stream;
                family = sp.l_family;
                n = sp.l_n;
                seed = sp.l_seed;
              })))
    p.Loadgen.p_specs;
  ignore (Server.take_output conn);
  let seqs = Hashtbl.create 64 in
  let wire =
    Array.map
      (fun f ->
        let key = (f.spec.Loadgen.l_tenant, f.spec.Loadgen.l_stream) in
        let seq = 1 + Option.value ~default:0 (Hashtbl.find_opt seqs key) in
        Hashtbl.replace seqs key seq;
        ( f,
          request
            (Sframe.Ingest
               { tenant = fst key; stream = snd key; seq; payload = f.payload }),
          request (Sframe.Query { tenant = fst key; stream = snd key }) ))
      frames
  in
  let ckpt_bytes = ref 0 and ckpt_s = ref 0.0 in
  let span = Trace.with_span in
  let loop () =
    Array.iteri
      (fun i (_, ingest, query) ->
        span "serve.feed" (fun () -> Server.feed t conn ingest);
        span "serve.drain" (fun () -> Server.drain t);
        (match span "serve.ack" (fun () -> responses (Server.take_output conn)) with
        | [ Ok (Sframe.Ack _) ] -> ()
        | _ -> failwith "serve core: frame not acked");
        if (i + 1) mod query_every = 0 then
          (match
             span "serve.query" (fun () ->
                 Server.feed t conn query;
                 responses (Server.take_output conn))
           with
          | [ Ok (Sframe.State _) ] -> ()
          | _ -> failwith "serve core: query not answered");
        if (i + 1) mod checkpoint_every = 0 then begin
          let dirty = Registry.dirty_tenants (Server.registry t) in
          let (), dt =
            timed (fun () -> span "serve.checkpoint" (fun () -> Server.checkpoint_now t))
          in
          ckpt_s := !ckpt_s +. dt;
          List.iter
            (fun (tn : Registry.tenant) ->
              let path =
                Ds_serve.Checkpoint.gen_path ~dir ~tenant:tn.Registry.t_name
                  ~generation:tn.Registry.generation
              in
              ckpt_bytes := !ckpt_bytes + (Unix.stat path).Unix.st_size)
            dirty
        end)
      wire
  in
  let run () =
    (* fsync latency swamps the tracing cost, so the timed figure leaves
       the checkpoints out. *)
    let ((), s), gc = with_gc (fun () -> timed loop) in
    let ms = 1000.0 *. (s -. !ckpt_s) in
    Server.checkpoint_now t;
    let recovered = span "serve.recover" (fun () -> Server.create cfg) in
    (ms, gc, (Server.recovery_report recovered).Server.r_streams)
  in
  let (ms, gc, recover_streams), rollup =
    if traced then traced_rollup ~capacity:((8 * Array.length frames) + 4096) run
    else (run (), fun _ -> None)
  in
  let result = { ms; rollup; gc; ckpt_bytes = !ckpt_bytes; recover_streams } in
  rm_rf dir;
  result

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace ~rate =
  let open_frames = open_frames ~rate ~seconds in
  (* One checkpoint interval per repetition, and one of warm-up. *)
  let closed_frames = checkpoint_every and warmup_frames = checkpoint_every in
  let needed = warmup_frames + (closed_reps * closed_frames) + open_frames in
  let s, setup_s = setup_median ~discard:teardown (fun () -> setup ~seed ~needed ~obs:trace) in
  (* The discarded set-ups are garbage; collect it before timing. *)
  Gc.compact ();
  let specs = Array.of_list s.p.Loadgen.p_specs in
  let probe = specs.(0) in
  let c = { failed = 0; attempted = 0; acked = Array.make (Array.length specs) 0 } in
  Fun.protect ~finally:(fun () -> rm_rf s.dir) @@ fun () ->
  (* Warm-up: one checkpoint interval, untimed. *)
  ignore (closed_rep s c ~lo:0 ~count:warmup_frames);
  let closed =
    List.init closed_reps (fun r ->
        closed_rep s c ~lo:(warmup_frames + (r * closed_frames)) ~count:closed_frames)
  in
  let rep_updates =
    let u = ref 0 in
    for i = warmup_frames to warmup_frames + (closed_reps * closed_frames) - 1 do
      u := !u + s.frames.(i).updates
    done;
    float_of_int !u /. float_of_int closed_reps
  in
  let ol =
    open_loop s c ~rate ~lo:(warmup_frames + (closed_reps * closed_frames)) ~count:open_frames
      ~poll_every:(if trace then checkpoint_every else 0)
  in
  let _, _, _, space_words = ok "stats" (Client.stats s.client) in
  let stat_json = if trace then Client.stat s.client else Error "untraced" in
  let retries = Client.retries s.client and reconnects = Client.reconnects s.client in
  let server_rss = peak_rss_mb ~pid:(string_of_int s.pid) () in
  kill9 s.pid;
  (* Restarts on the same store; the last one stays up for verify. *)
  let rec restarts_from i acc =
    let pid, dt, answered = restart s.dir probe in
    c.attempted <- c.attempted + 1;
    if not answered then c.failed <- c.failed + 1;
    if i + 1 < restarts then (kill9 pid; restarts_from (i + 1) (dt :: acc))
    else (pid, List.rev (dt :: acc))
  in
  let pid, recover_s = restarts_from 0 [] in
  let lines = ledger_lines s c in
  (* The main client reconnects here, and resyncs what the kill lost. *)
  let checked, mismatches = Loadgen.verify s.client s.p ~ledger_lines:lines in
  c.attempted <- c.attempted + checked;
  c.failed <- c.failed + List.length mismatches;
  List.iter (fun m -> Printf.printf "verify mismatch: %s\n" m) mismatches;
  (* Make the acked state durable, so the control below differs from the
     mirror only by its flipped byte. *)
  List.iter
    (fun tenant -> ignore (ok "flush" (Client.flush s.client ~tenant)))
    (List.sort_uniq compare
       (Array.to_list (Array.map (fun (x : Loadgen.stream_spec) -> x.l_tenant) specs)));
  Client.close s.client;
  kill9 pid;
  let control_pid, control_sock = start_server ~tamper:probe s.dir in
  let control_client = Client.connect ~socket_path:control_sock ~delay_unit:0.005 () in
  let _, control_mismatches = Loadgen.verify control_client s.p ~ledger_lines:lines in
  Client.close control_client;
  kill9 control_pid;
  let control_caught =
    match control_mismatches with
    | [ m ] ->
        let prefix = probe.l_tenant ^ "/" ^ probe.l_stream ^ ":" in
        String.length m >= String.length prefix && String.sub m 0 (String.length prefix) = prefix
    | _ -> false
  in
  let lag_p50 = percentile ol.lag_ms 0.50 and lag_p99 = percentile ol.lag_ms 0.99 in
  let p50 = percentile ol.lat_ms 0.50 and p99 = percentile ol.lat_ms 0.99 in
  let result_s = median closed in
  let capacity = rep_updates /. result_s in
  let extras =
    [
      ("ingest_p50_ms", p50, "ms");
      ("ingest_p99_ms", p99, "ms");
      ("capacity_updates_per_s", capacity, "updates/s");
      ("query_p50_ms", percentile ol.query_ms 0.50, "ms");
      ("recovery_s", median recover_s, "s");
    ]
  in
  Printf.printf
    "serve: %d frames/rep x %d reps closed loop, %d open-loop frames at %g frames/s (%d queries), \
     %d restarts\n"
    closed_frames closed_reps open_frames rate (List.length ol.query_ms) restarts;
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("result_s", result_s, "s");
      ("space_words", float_of_int space_words, "words");
      ("peak_rss_mb", server_rss, "MB");
    ]
  in
  let layers =
    if not trace then []
    else begin
      let rep_frames = Array.sub s.frames warmup_frames (4 * closed_frames) in
      let replay = core_replay s.p rep_frames in
      (* Untraced/traced pairs, alternating which side runs first. *)
      let pairs =
        List.init overhead_pairs (fun i ->
            if i mod 2 = 0 then
              let off = replay ~traced:false in
              (off, replay ~traced:true)
            else
              let on = replay ~traced:true in
              (replay ~traced:false, on))
      in
      let ons = List.map snd pairs in
      let med f = median (List.map f ons) in
      let per_call_us time name =
        1000.0 *. med (fun r -> time r.rollup name /. Float.max 1.0 (span_count r.rollup name))
      in
      let ov, ov_iqr = overhead (List.map (fun (a, b) -> (a.ms, b.ms)) pairs) in
      let server_apply_us =
        match stat_json with
        | Ok j -> Option.value ~default:nan (stat_field j [ "ingest"; "p50" ]) /. 1000.0
        | Error _ -> nan
      in
      let overloaded =
        match stat_json with
        | Ok j -> Option.value ~default:0.0 (stat_field j [ "nacks"; "overloaded" ])
        | Error _ -> nan
      in
      let frame_bytes =
        float_of_int (Array.fold_left (fun a f -> a + String.length f.payload) 0 rep_frames)
        /. float_of_int (Array.length rep_frames)
      in
      [
        ("client.encode_us", 1e6 *. s.encode_s /. float_of_int (Array.length s.frames), "us");
        ("serve.frame_bytes", frame_bytes, "bytes");
        ("serve.feed_us", per_call_us self_ms "serve.feed", "us");
        (* The server's own serve.apply span runs from feed to drain, so
           drain's self time would exclude the absorb it measures. *)
        ("serve.drain_us", per_call_us total_ms "serve.drain", "us");
        ("serve.ack_us", per_call_us self_ms "serve.ack", "us");
        ("serve.checkpoint_ms", per_call_us self_ms "serve.checkpoint" /. 1000.0, "ms");
        ( "serve.checkpoint_bytes",
          med (fun r -> float_of_int r.ckpt_bytes)
          /. float_of_int (Array.length rep_frames / checkpoint_every),
          "bytes" );
        ("serve.query_us", per_call_us self_ms "serve.query", "us");
        ("serve.recover_ms", per_call_us total_ms "serve.recover" /. 1000.0, "ms");
        ("serve.recover_streams", med (fun r -> float_of_int r.recover_streams), "count");
        ("serve.transport_us", (1000.0 *. percentile ol.rtt_ms 0.5) -. server_apply_us, "us");
        ("serve.queue_depth_max", float_of_int ol.queue_depth_max, "count");
        ("serve.overloaded_nacks", overloaded, "count");
        ("client.retries", float_of_int retries, "count");
        ("client.reconnects", float_of_int reconnects, "count");
        ("gen.lag_ms", lag_p99, "ms");
        ("gc.major_words", median (List.map (fun (a, _) -> a.gc.major_words) pairs), "words");
        ( "gc.minor_collections",
          median (List.map (fun (a, _) -> a.gc.minor_collections) pairs),
          "count" );
        ("trace.overhead_frac", ov, "ratio");
        ("trace.overhead_iqr", ov_iqr, "ratio");
      ]
    end
  in
  {
    checks =
      [
        ( Printf.sprintf
            "verify: %d streams bit-identical to the mirror at their acked watermark" checked,
          mismatches = [] && checked = Array.length specs );
        ( Printf.sprintf
            "generator kept its schedule (median lag %.4f ms <= %g x ingest p50; p99 lag %.3f ms)"
            lag_p50 max_gen_lag_share lag_p99,
          lag_p50 <= max_gen_lag_share *. p50 );
        ("control: one flipped byte in a recovered envelope fails verify", control_caught);
      ];
    attempted = c.attempted;
    failed = c.failed;
    metrics = (if trace then [] else e2e) @ extras @ layers;
  }
