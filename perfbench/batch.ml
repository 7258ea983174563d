(* The two sketching pipelines, run as a batch over one generated dynamic
   stream: the two-pass 2^k-spanner of Theorem 1 and the single-pass
   KLMMS sparsifier shipped from simulated sites to a coordinator.

   The workload seed shapes only the inputs (graph and stream).  The
   algorithms draw their randomness from [program_seed], a constant of
   the program under test, exactly as a deployment would fix it. *)

open Ds_util
open Ds_graph
open Ds_stream
open Util
module TPS = Ds_core.Two_pass_spanner
module S1 = Ds_sparsify.Sparsify1p
module Trace = Ds_obs.Trace

let program_seed = 20140721

let span = Trace.with_span

(* One repetition of the timed job, untraced, with its GC delta. *)
let untraced_rep job =
  let (r, dt), gc = with_gc (fun () -> timed job) in
  (r, dt, gc)

(* The timed repetitions: untraced ones for [seconds], or, when traced,
   untraced/traced pairs so both the layer rollup and the tracing
   overhead come from the same run. *)
type 'a reps = {
  results : 'a list;
  times : float list;  (** untraced repetitions, s *)
  gcs : gc_delta list;
  layers : (string -> Ds_obs.Trace_tree.rollup option) list;  (** traced repetitions *)
  pairs : (float * float) list;  (** (untraced, traced) seconds *)
}

let run_reps ~trace ~seconds ~min_reps ~capacity job =
  if not trace then begin
    let reps = repeat ~seconds ~min_reps (fun _ -> untraced_rep job) in
    {
      results = List.map (fun (r, _, _) -> r) reps;
      times = List.map (fun (_, t, _) -> t) reps;
      gcs = List.map (fun (_, _, g) -> g) reps;
      layers = [];
      pairs = [];
    }
  end
  else begin
    let pairs =
      repeat ~seconds ~min_reps (fun i ->
          let traced () = traced_rollup ~capacity (fun () -> timed job) in
          (* Alternate which side of a pair runs first. *)
          let (r, off, gc), ((_, on), rollup) =
            if i mod 2 = 0 then
              let u = untraced_rep job in
              (u, traced ())
            else
              let t = traced () in
              (untraced_rep job, t)
          in
          (r, off, gc, rollup, on))
    in
    {
      results = List.map (fun (r, _, _, _, _) -> r) pairs;
      times = List.map (fun (_, t, _, _, _) -> t) pairs;
      gcs = List.map (fun (_, _, g, _, _) -> g) pairs;
      layers = List.map (fun (_, _, _, l, _) -> l) pairs;
      pairs = List.map (fun (_, off, _, _, on) -> (off, on)) pairs;
    }
  end

let layer_median reps name = median (List.map (fun rollup -> self_ms rollup name) reps.layers)

(* [result_s] is per input: a repetition over [instances] inputs counts
   as [instances] results. *)
let common_metrics ~trace reps ~setup_s ~instances ~space_words =
  let gc_major = median (List.map (fun g -> g.major_words) reps.gcs)
  and gc_minor = median (List.map (fun g -> g.minor_collections) reps.gcs) in
  if trace then
    let ov, ov_iqr = overhead reps.pairs in
    [
      ("gc.major_words", gc_major, "words");
      ("gc.minor_collections", gc_minor, "count");
      ("trace.overhead_frac", ov, "ratio");
      ("trace.overhead_iqr", ov_iqr, "ratio");
    ]
  else
    [
      ("setup_s", setup_s, "s");
      ("result_s", median reps.times /. float_of_int instances, "s");
      ("space_words", space_words, "words");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]

(* ------------------------------------------------------------------ *)
(* spanner_2pass                                                        *)
(* ------------------------------------------------------------------ *)

let sp_n = 512
let sp_p = 0.2
let sp_k = 3
let sp_decoys = 104_000
let sp_instances = 3

(* The judge: the output is a subgraph of the input and its exact
   multiplicative stretch is at most 2^k, with no pair disconnected. *)
let spanner_verdict g h =
  if not (Graph.is_subgraph ~sub:h ~super:g) then (false, infinity)
  else
    let s = Ds_core.Stretch.multiplicative ~base:g ~spanner:h in
    ( s.Ds_core.Stretch.violations = 0 && s.Ds_core.Stretch.max <= float_of_int (1 lsl sp_k),
      s.Ds_core.Stretch.max )

(* Negative control: the spanner plus one edge that is not in the input. *)
let with_foreign_edge g h =
  let h' = Graph.copy h in
  let rec find u v =
    if v >= sp_n then find (u + 1) (u + 2)
    else if Graph.mem_edge g u v then find u (v + 1)
    else Graph.add_edge h' u v
  in
  find 0 1;
  h'

let spanner ~seed ~seconds ~trace =
  (* Each run builds [sp_instances] input graphs from its seed.  The
     spanner's cost depends on the input (pass 2 by up to 1.5x between
     two G(512, 0.2) graphs), so one graph per run would make the
     workload seed, not the code, set most of the run-to-run spread. *)
  let setup () =
    let rng = Prng.create seed in
    Array.init sp_instances (fun _ ->
        let g = Gen.connected_gnp (Prng.split rng) ~n:sp_n ~p:sp_p in
        let stream =
          span "stream.gen" (fun () -> Stream_gen.with_churn (Prng.split rng) ~decoys:sp_decoys g)
        in
        (g, stream))
  in
  let inputs, setup_s = setup_median setup in
  let gen_s =
    if trace then
      let _, rollup = traced_rollup ~capacity:64 setup in
      self_ms rollup "stream.gen" /. 1000.0
    else 0.0
  in
  let params = TPS.default_params ~k:sp_k in
  (* One repetition builds the spanner of every input. *)
  let job () =
    Array.map (fun (_, stream) -> TPS.run (Prng.create program_seed) ~n:sp_n ~params stream) inputs
  in
  let reps = run_reps ~trace ~seconds ~min_reps:(if trace then 3 else 2) ~capacity:4096 job in
  let verdicts, check_s =
    timed (fun () ->
        List.concat_map
          (fun rs ->
            Array.to_list (Array.map2 (fun (g, _) r -> spanner_verdict g r.TPS.spanner) inputs rs))
          reps.results)
  in
  let checked = List.map fst verdicts in
  let first = List.hd reps.results in
  let g0, _ = inputs.(0) in
  let control_rejected =
    not (fst (spanner_verdict g0 (with_foreign_edge g0 first.(0).TPS.spanner)))
  in
  let failed = List.length (List.filter not checked) in
  (* Sizes and counts are per input: the mean over the inputs. *)
  let mean f =
    Array.fold_left (fun a r -> a +. float_of_int (f r)) 0.0 first /. float_of_int sp_instances
  in
  let extras =
    [
      ("output_edges", mean (fun r -> Graph.num_edges r.TPS.spanner), "edges");
      ("stretch_max", List.fold_left (fun a (_, s) -> Float.max a s) 0.0 verdicts, "ratio");
    ]
  in
  let layers =
    if not trace then []
    else
      let per_input name = layer_median reps name /. float_of_int sp_instances in
      let pass1 = per_input "spanner.pass1" and pass2 = per_input "spanner.pass2" in
      let updates = Array.fold_left (fun a (_, st) -> a + Array.length st) 0 inputs in
      [
        ("stream.gen_s", gen_s, "s");
        ("spanner.derive_ms", per_input "spanner.derive", "ms");
        ("spanner.pass1_ms", pass1, "ms");
        ("spanner.pass2_ms", pass2, "ms");
        ( "spanner.pass_updates_per_s",
          2.0 *. float_of_int updates /. (float_of_int sp_instances *. (pass1 +. pass2) /. 1000.0),
          "updates/s" );
        ("spanner.clustering_ms", per_input "spanner.clustering", "ms");
        ("spanner.extract_ms", per_input "spanner.extract", "ms");
        ( "spanner.decode_failures",
          mean (fun r ->
              let d = r.TPS.diagnostics in
              d.TPS.pass1_decode_failures + d.TPS.table_decode_failures
              + d.TPS.payload_decode_failures),
          "count" );
        ("spanner.recovered_edges", mean (fun r -> r.TPS.diagnostics.TPS.recovered_edges), "edges");
        ("stretch.check_s", check_s /. float_of_int (List.length checked), "s");
      ]
  in
  {
    checks =
      [
        ( Printf.sprintf "spanner is a subgraph of the input with stretch <= %d (%d of %d spanners)"
            (1 lsl sp_k)
            (List.length checked - failed)
            (List.length checked),
          failed = 0 );
        ("control: spanner plus one non-input edge is rejected", control_rejected);
      ];
    attempted = List.length checked;
    failed;
    metrics =
      common_metrics ~trace reps ~setup_s ~instances:sp_instances
        ~space_words:(mean (fun r -> r.TPS.space_words))
      @ extras @ layers;
  }

(* ------------------------------------------------------------------ *)
(* sparsify_1p                                                          *)
(* ------------------------------------------------------------------ *)

let sf_n = 256
let sf_eps = 0.5
let sf_sites = 4
let bank = (module Ds_sparsify.Level_bank.Linear : Ds_sketch.Linear_sketch.S
             with type t = Ds_sparsify.Level_bank.t)

type pencil = { within : bool; err : float }

let pencil base h =
  let b = Ds_linalg.Spectral.pencil_bounds ~base ~candidate:h in
  let open Ds_linalg.Spectral in
  {
    within =
      b.lambda_min >= 1.0 -. sf_eps && b.lambda_max <= 1.0 +. sf_eps && b.kernel_leak < 1e-6;
    err = Float.max (1.0 -. b.lambda_min) (b.lambda_max -. 1.0);
  }

(* The judge: strictly fewer edges than the input, and the exact pencil
   inside [1 - eps, 1 + eps].  The size test runs first, so a sparsifier
   that returns its input is rejected without the eigensolve. *)
let sparsifier_verdict ~base h =
  if Weighted_graph.num_edges h >= Weighted_graph.num_edges base then (false, infinity)
  else
    let p = pencil base h in
    (p.within, p.err)

(* Negative control: the sparsifier with one edge made heavy enough that
   it cannot be a sparsifier.  On K_n the vector e_u - e_v has energy 2n,
   so an edge {u,v} of weight above (1 + eps) n / 2 alone takes the
   pencil's lambda_max above 1 + eps.  The heaviest edge is scaled by
   the smallest factor of at least 4 that gets it there: on K_256 a
   single edge scaled by 4 can still leave a valid sparsifier, which the
   judge rightly accepts. *)
let with_heavier_edge h =
  let best = ref (0, 0, neg_infinity) in
  Weighted_graph.iter_edges h (fun u v w ->
      let _, _, bw = !best in
      if w > bw then best := (u, v, w));
  let bu, bv, bw = !best in
  let target = 1.01 *. (1.0 +. sf_eps) *. float_of_int sf_n /. 2.0 in
  let factor = Float.max 4.0 (Float.ceil (target /. bw)) in
  Weighted_graph.of_edges (Weighted_graph.n h)
    (List.map
       (fun (u, v, w) -> if (u, v) = (bu, bv) then (u, v, factor *. bw) else (u, v, w))
       (Weighted_graph.edges h))

let sparsify ~seed ~seconds ~trace =
  let params = S1.default_params ~n:sf_n ~eps:sf_eps in
  let (kg, shards, sites, coord), setup_s =
    setup_median (fun () ->
        let rng = Prng.create seed in
        let kg = Gen.complete sf_n in
        let stream =
          span "stream.gen" (fun () ->
              Stream_gen.flapping (Prng.split rng) ~flaps:(Graph.num_edges kg) kg)
        in
        let shards =
          Ds_par.Shard_ingest.split Ds_par.Shard_ingest.Chunked ~shards:sf_sites stream
        in
        (* Sites and coordinator share one seed-derived structure, so their
           banks merge by linearity. *)
        let fresh () = S1.create (Prng.create program_seed) ~n:sf_n ~params in
        (kg, shards, Array.init sf_sites (fun _ -> fresh ()), fresh ()))
  in
  let base = Weighted_graph.of_graph kg in
  let ship_bytes = ref 0 in
  let job () =
    Array.iter (fun s -> Ds_sparsify.Level_bank.reset (S1.bank s)) sites;
    Ds_sparsify.Level_bank.reset (S1.bank coord);
    span "sparsify.ingest" (fun () ->
        Array.iteri
          (fun i shard ->
            Array.iter
              (fun (u : Update.t) ->
                S1.update sites.(i) ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
              shard)
          shards);
    let envelopes =
      span "sparsify.ship" (fun () ->
          Array.map (fun s -> Ds_sketch.Linear_sketch.serialize bank (S1.bank s)) sites)
    in
    ship_bytes := Array.fold_left (fun a e -> a + String.length e) 0 envelopes;
    span "sparsify.merge" (fun () ->
        Array.iter (Ds_sketch.Linear_sketch.absorb bank (S1.bank coord)) envelopes);
    span "sparsify.decode" (fun () -> S1.decode (Prng.create (program_seed + 1)) coord ~eps:sf_eps)
  in
  let reps = run_reps ~trace ~seconds ~min_reps:(if trace then 2 else 1) ~capacity:4096 job in
  (* Repetitions decode the same state with the same seed; an output
     equal to one already judged gets that verdict without a second
     eigensolve. *)
  let judged = Hashtbl.create 2 in
  let verdicts, check_s =
    timed (fun () ->
        List.map
          (fun r ->
            let key = List.sort compare (Weighted_graph.edges r.S1.sparsifier) in
            match Hashtbl.find_opt judged key with
            | Some v -> v
            | None ->
                let v = sparsifier_verdict ~base r.S1.sparsifier in
                Hashtbl.replace judged key v;
                v)
          reps.results)
  in
  let checked = List.map fst verdicts in
  let first = List.hd reps.results in
  let h = first.S1.sparsifier in
  let heavier_rejected = not (fst (sparsifier_verdict ~base (with_heavier_edge h))) in
  let whole_rejected = not (fst (sparsifier_verdict ~base base)) in
  let failed = List.length (List.filter not checked) in
  let extras =
    [
      ("output_edges", float_of_int (Weighted_graph.num_edges h), "edges");
      ("pencil_err", snd (List.hd verdicts), "ratio");
    ]
  in
  let layers =
    if not trace then []
    else
      [
        ("sparsify.ingest_ms", layer_median reps "sparsify.ingest", "ms");
        ("sparsify.ship_ms", layer_median reps "sparsify.ship", "ms");
        ("sparsify.ship_bytes", float_of_int !ship_bytes, "bytes");
        ("sparsify.merge_ms", layer_median reps "sparsify.merge", "ms");
        ("sparsify.decode_ms", layer_median reps "sparsify.decode", "ms");
        ("sparsify.chain_steps", float_of_int first.S1.chain_steps, "count");
        ( "sparsify.chain_edges",
          float_of_int (Array.fold_left ( + ) 0 first.S1.chain_sizes),
          "edges" );
        ("pencil.check_s", check_s /. float_of_int (Hashtbl.length judged), "s");
      ]
  in
  {
    checks =
      [
        ( Printf.sprintf
            "sparsifier has fewer edges than the input and pencil within [%.2f, %.2f] (%d of %d \
             runs)"
            (1.0 -. sf_eps) (1.0 +. sf_eps)
            (List.length checked - failed)
            (List.length checked),
          failed = 0 );
        ( "control: sparsifier with its heaviest edge scaled past (1 + eps) n / 2 is rejected",
          heavier_rejected );
        ("control: sparsifier equal to its whole input is rejected", whole_rejected);
      ];
    attempted = List.length checked;
    failed;
    metrics =
      common_metrics ~trace reps ~setup_s ~instances:1
        ~space_words:(float_of_int first.S1.space_words)
      @ extras @ layers;
  }
