open Ds_util
open Ds_graph
open Ds_linalg
open Ds_stream
open Ds_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small, fast parameters for tests; the bench sweeps real budgets. With
   J = 3 repetitions the far-vote needs lambda > 1/3 so that one unlucky
   repetition cannot push q_hat down a level. *)
let fast_params ~n =
  let base = Sparsify.default_params ~k:2 ~eps:0.5 ~n in
  {
    base with
    Sparsify.z_rounds = 8;
    oversample_shift = 3;
    estimate = { base.Sparsify.estimate with Estimate.j_reps = 3; t_levels = 10; lambda = 0.34 };
  }

(* -------------------- Estimate -------------------- *)

let test_estimate_orders_resistances () =
  (* On a lollipop, the path edges have resistance ~1 and the clique edges
     ~2/m: the oracle must give path edges a denser (smaller) level. *)
  let g = Gen.lollipop 12 10 in
  let n = Graph.n g in
  let stream = Stream_gen.insert_only (Prng.create 1) g in
  let prm = (fast_params ~n).Sparsify.estimate in
  let est = Estimate.build (Prng.create 2) ~n ~params:prm stream in
  let path_level = Estimate.query est 15 16 in
  let clique_level = Estimate.query est 0 1 in
  check_bool "bridge-ish edges denser" true (path_level < clique_level);
  check_bool "levels start at 1" true (path_level >= 1)

let test_estimate_correlates_with_resistance () =
  (* Lemma 19 ([KP12]): q_hat = Omega(R_e / alpha^2). Empirically the oracle
     levels should correlate with -log2(R_e): higher-resistance edges get
     denser (smaller) levels. Spearman-style check: mean level of the
     top-resistance tercile < mean level of the bottom tercile. *)
  let g = Gen.lollipop 14 12 in
  let n = Graph.n g in
  let wg = Weighted_graph.of_graph g in
  let stream = Stream_gen.insert_only (Prng.create 50) g in
  let prm = (fast_params ~n).Sparsify.estimate in
  let est = Estimate.build (Prng.create 51) ~n ~params:prm stream in
  let rows =
    List.map
      (fun (u, v, _, r) -> (r, float_of_int (Estimate.query est u v)))
      (Resistance.all_edges wg)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) rows in
  let k = List.length sorted / 3 in
  let take l n = List.filteri (fun i _ -> i < n) l in
  let top = take sorted k and bottom = take (List.rev sorted) k in
  let mean l = Stats.mean (Array.of_list (List.map snd l)) in
  check_bool
    (Printf.sprintf "high-R edges denser: %.2f < %.2f" (mean top) (mean bottom))
    true
    (mean top < mean bottom)

let test_estimate_exact_mode () =
  let g = Gen.lollipop 12 10 in
  let n = Graph.n g in
  let stream = Stream_gen.insert_only (Prng.create 3) g in
  let prm = { (fast_params ~n).Sparsify.estimate with Estimate.mode = Estimate.Exact_resistance } in
  let est = Estimate.build (Prng.create 4) ~n ~params:prm stream in
  (* Path edge: R = 1 -> q clamped to 1/2 -> level 1. *)
  check_int "path edge level" 1 (Estimate.query est 15 16);
  (* Clique edge: R ~ 2/12 -> level ~ round(log2(6)) = 3. *)
  let l = Estimate.query est 0 1 in
  check_bool "clique edge sparser" true (l >= 2 && l <= 5)

(* -------------------- Sample / Sparsify -------------------- *)

let pencil g h =
  Spectral.pencil_bounds ~base:(Weighted_graph.of_graph g) ~candidate:h

let test_sparsify_quality () =
  let n = 48 in
  let rng = Prng.create 5 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let r = Sparsify.run (Prng.split rng) ~n ~params:(fast_params ~n) stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "no kernel leak" true (b.Spectral.kernel_leak < 1e-6);
  check_bool
    (Printf.sprintf "lambda_min %.3f reasonable" b.Spectral.lambda_min)
    true (b.Spectral.lambda_min > 0.2);
  check_bool
    (Printf.sprintf "lambda_max %.3f reasonable" b.Spectral.lambda_max)
    true (b.Spectral.lambda_max < 3.0)

let test_sparsify_under_churn () =
  let n = 40 in
  let rng = Prng.create 6 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:200 g in
  let r = Sparsify.run (Prng.split rng) ~n ~params:(fast_params ~n) stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "connected approximation" true (b.Spectral.lambda_min > 0.1);
  check_bool "bounded above" true (b.Spectral.lambda_max < 4.0)

let test_sparsify_exact_oracle_ablation () =
  let n = 48 in
  let rng = Prng.create 7 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let prm = fast_params ~n in
  let prm =
    { prm with Sparsify.estimate = { prm.Sparsify.estimate with Estimate.mode = Estimate.Exact_resistance } }
  in
  let r = Sparsify.run (Prng.split rng) ~n ~params:prm stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "exact oracle also works" true
    (b.Spectral.lambda_min > 0.2 && b.Spectral.lambda_max < 3.0)

let test_sparsify_preserves_bridge () =
  (* The bridge of a barbell has q_hat ~ 1: it must survive with weight ~1
     (its loss would send lambda_min to 0). *)
  let n = 24 in
  let g = Gen.barbell 12 in
  let stream = Stream_gen.insert_only (Prng.create 8) g in
  (* The bridge's q_hat level t* is ~log(1/lambda) above its resistance
     level (the alpha^2 slack of Lemma 19), so give this test the rounds
     that Lemma 22's Z = O(alpha^2 log n / eps^3) would: Z * 2^-level >> 1. *)
  let prm = { (fast_params ~n) with Sparsify.z_rounds = 16 } in
  let r = Sparsify.run (Prng.create 9) ~n ~params:prm stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "bridge preserved (lambda_min > 0)" true (b.Spectral.lambda_min > 0.2);
  check_bool "bridge edge present" true
    (Weighted_graph.mem_edge r.Sparsify.sparsifier 11 12)

let test_sample_spanner_semantics () =
  (* With q == j0 constant, Algorithm 5 must emit only weight 2^j0 edges,
     all of them real edges of the graph, and only edges that survived the
     level-j0 subsample (so substantially fewer than |E| for large j0). *)
  let n = 40 in
  let rng = Prng.create 60 in
  let g = Gen.connected_gnp rng ~n ~p:0.25 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let j0 = 3 in
  let r =
    Sample_spanner.run (Prng.split rng) ~n
      ~spanner_params:(Two_pass_spanner.default_params ~k:2)
      ~h_levels:8
      ~q:(fun _ _ -> j0)
      stream
  in
  check_bool "some edges emitted" true (List.length r.Sample_spanner.edges > 0);
  List.iter
    (fun (u, v, w) ->
      check_bool "real edge" true (Graph.mem_edge g u v);
      Alcotest.(check (float 1e-9)) "weight is 2^j0" (float_of_int (1 lsl j0)) w)
    r.Sample_spanner.edges;
  check_bool "subsampled (well below |E|)" true
    (List.length r.Sample_spanner.edges < Graph.num_edges g / 2);
  check_bool "space accounted" true (r.Sample_spanner.space_words > 0)

let test_sample_spanner_no_duplicates () =
  let n = 30 in
  let rng = Prng.create 61 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let r =
    Sample_spanner.run (Prng.split rng) ~n
      ~spanner_params:(Two_pass_spanner.default_params ~k:2)
      ~h_levels:6
      ~q:(fun _ _ -> 2)
      stream
  in
  let keys = List.map (fun (u, v, _) -> (u, v)) r.Sample_spanner.edges in
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicate edges" (List.length keys) (List.length sorted)

let test_weighted_sparsify () =
  (* Weights in two well-separated classes; the weighted wrapper must land
     the pencil bounds inside the (1+gamma)(1+-eps) window. *)
  let n = 32 in
  let rng = Prng.create 30 in
  let g0 = Gen.connected_gnp rng ~n ~p:0.35 in
  let wg = Weighted_graph.create n in
  Graph.iter_edges g0 (fun u v ->
      Weighted_graph.add_edge wg u v (if (u + v) mod 2 = 0 then 1.0 else 8.0));
  let stream =
    Array.of_list
      (List.map
         (fun (u, v, w) -> { Update.wu = u; wv = v; weight = w; wsign = Update.Insert })
         (Weighted_graph.edges wg))
  in
  let gamma = 0.5 in
  let prm = { (fast_params ~n) with Sparsify.z_rounds = 12 } in
  let r = Weighted_sparsify.run (Prng.split rng) ~n ~params:prm ~gamma ~w_min:1.0 ~w_max:8.0 stream in
  check_bool "at least two classes" true (r.Weighted_sparsify.classes >= 2);
  let b = Spectral.pencil_bounds ~base:wg ~candidate:r.Weighted_sparsify.sparsifier in
  let lo, hi = Weighted_sparsify.quality_bound ~eps:0.8 ~gamma in
  check_bool
    (Printf.sprintf "weighted pencil [%.2f, %.2f] in [%.2f, %.2f]" b.Spectral.lambda_min
       b.Spectral.lambda_max lo hi)
    true
    (b.Spectral.lambda_min >= lo -. 1e-9 && b.Spectral.lambda_max <= hi +. 1e-9);
  check_bool "kernel clean" true (b.Spectral.kernel_leak < 1e-6)

(* -------------------- Uniform-sampling baseline -------------------- *)

let test_uniform_loses_bridges () =
  (* At rate p, the barbell bridge dies with probability 1 - p; resistance-
     aware sampling (SS08) keeps it always. *)
  let g = Weighted_graph.of_graph (Gen.barbell 12) in
  let p = 0.3 in
  let lost = ref 0 and trials = 40 in
  for t = 0 to trials - 1 do
    let h = Uniform_sparsifier.run (Prng.create (100 + t)) ~p g in
    if not (Weighted_graph.mem_edge h 11 12) then incr lost
  done;
  let frac = float_of_int !lost /. float_of_int trials in
  check_bool
    (Printf.sprintf "bridge lost ~(1-p) of the time (%.2f)" frac)
    true
    (abs_float (frac -. (1.0 -. p)) < 0.2);
  (* SS08 never loses it: p_e = min(1, C w R log n / eps^2) = 1 for R = 1. *)
  for t = 0 to 9 do
    let h = Ss_sparsifier.run (Prng.create (200 + t)) ~eps:0.5 ~oversample:1.0 g in
    check_bool "ss08 keeps the bridge" true (Weighted_graph.mem_edge h 11 12)
  done

let test_uniform_unbiased_on_expanders () =
  (* On a dense G(n,p) every cut is crossed by many edges, so uniform
     sampling is actually fine — the contrast that motivates importance
     sampling only on sparse cuts. *)
  let g = Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 40) ~n:48 ~p:0.5) in
  let h = Uniform_sparsifier.run (Prng.create 41) ~p:0.5 g in
  let b = Spectral.pencil_bounds ~base:g ~candidate:h in
  check_bool
    (Printf.sprintf "dense graph ok [%.2f, %.2f]" b.Spectral.lambda_min b.Spectral.lambda_max)
    true
    (b.Spectral.lambda_min > 0.35 && b.Spectral.lambda_max < 1.65)

let test_uniform_matching_p () =
  let g = Weighted_graph.of_graph (Gen.complete 20) in
  Alcotest.(check (float 1e-9)) "rate" (50.0 /. 190.0)
    (Uniform_sparsifier.matching_p ~target_edges:50 g)

(* -------------------- SS08 baseline -------------------- *)

let test_ss08_quality () =
  let g = Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 10) ~n:64 ~p:0.4) in
  let h = Ss_sparsifier.run (Prng.create 11) ~eps:0.5 g in
  let b = Spectral.pencil_bounds ~base:g ~candidate:h in
  check_bool "ss08 lambda_min" true (b.Spectral.lambda_min > 0.4);
  check_bool "ss08 lambda_max" true (b.Spectral.lambda_max < 1.7);
  check_bool "ss08 compresses" true
    (Weighted_graph.num_edges h < Weighted_graph.num_edges g)

let test_ss08_expected_size_formula () =
  let g = Weighted_graph.of_graph (Gen.complete 32) in
  let e = Ss_sparsifier.expected_size ~eps:0.5 g in
  (* sum_e p_e <= m, and for a clique with eps=0.5 it is far below m. *)
  check_bool "formula sane" true (e > 0.0 && e <= float_of_int (Weighted_graph.num_edges g))

(* -------------------- single-pass (KLMMS chain) -------------------- *)

module S1 = Ds_sparsify.Sparsify1p
module LB = Ds_sparsify.Level_bank

let weighted_of_multigraph g =
  let wg = Weighted_graph.create (Graph.n g) in
  Graph.iter_edges g (fun u v ->
      Weighted_graph.add_edge wg u v (float_of_int (Graph.multiplicity g u v)));
  wg

(* A multigraph stream with deletions and Zipf-profiled residual
   multiplicities: edge of rank r ends at multiplicity ~ 4 / (1 + r mod 7),
   and every edge is over-inserted once and deleted once on the way. *)
let zipf_multigraph_stream rng g =
  let first = ref [] and ins = ref [] and del = ref [] in
  List.iteri
    (fun i (u, v) ->
      let m = max 1 (4 / (1 + (i mod 7))) in
      first := Update.insert u v :: !first;
      for _ = 1 to m do
        ins := Update.insert u v :: !ins
      done;
      del := Update.delete u v :: !del)
    (Graph.edges g);
  let shuffle a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* One guaranteed insert per edge up front keeps every prefix valid; the
     remaining inserts and the deletions then interleave freely (an edge may
     drop to multiplicity 0 mid-stream and come back). *)
  Array.append
    (shuffle (Array.of_list !first))
    (Stream_gen.interleave rng (shuffle (Array.of_list !ins)) (shuffle (Array.of_list !del)))

let test_s1_eps_boundaries () =
  let rejects_two_pass eps =
    try
      ignore (Sparsify.default_params ~k:2 ~eps ~n:32);
      false
    with Sparsify.Invalid_eps e -> e = eps || (Float.is_nan e && Float.is_nan eps)
  in
  let rejects_one_pass eps =
    try
      ignore (S1.default_params ~n:32 ~eps);
      false
    with S1.Invalid_eps e -> e = eps || (Float.is_nan e && Float.is_nan eps)
  in
  List.iter
    (fun eps ->
      check_bool (Printf.sprintf "two-pass rejects %f" eps) true (rejects_two_pass eps);
      check_bool (Printf.sprintf "one-pass rejects %f" eps) true (rejects_one_pass eps))
    [ 0.0; 1.0; -0.25; 1.5; Float.nan ];
  (* The open interval's interior is accepted right up to the ends. *)
  List.iter
    (fun eps ->
      ignore (Sparsify.default_params ~k:2 ~eps ~n:32);
      ignore (S1.default_params ~n:32 ~eps))
    [ 0.001; 0.5; 0.999 ]

let test_s1_empty_stream () =
  let n = 16 in
  let r = S1.run (Prng.create 900) ~n ~params:(S1.default_params ~n ~eps:0.5) ~eps:0.5 [||] in
  check_int "empty stream -> empty sparsifier" 0
    (Weighted_graph.num_edges r.S1.sparsifier);
  check_bool "chain still ran" true (r.S1.chain_steps > 0)

let prop_s1_pencil =
  QCheck.Test.make
    ~name:"single-pass pencil bounds within (1 +- eps) on Zipf multigraphs with deletions"
    ~count:8 QCheck.small_nat
    (fun seed ->
      let n = 24 and eps = 0.5 in
      let rng = Prng.create (7000 + seed) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.25 in
      let stream = zipf_multigraph_stream (Prng.split rng) g in
      let base = weighted_of_multigraph (Update.final_graph ~n stream) in
      let r = S1.run (Prng.split rng) ~n ~params:(S1.default_params ~n ~eps) ~eps stream in
      let b = Spectral.pencil_bounds ~base ~candidate:r.S1.sparsifier in
      b.Spectral.lambda_min >= 1.0 -. eps
      && b.Spectral.lambda_max <= 1.0 +. eps
      && b.Spectral.kernel_leak < 1e-6)

let s1_test_bank seed =
  LB.create (Prng.create seed) ~dim:(Edge_index.dim 16)
    ~params:{ LB.banks = 2; levels = 6; rows = 3; cols = 32; hash_degree = 4 }

let s1_serialize t = Ds_sketch.Linear_sketch.serialize (module LB.Linear) t

let prop_s1_serialize_merge_commutes =
  QCheck.Test.make ~name:"level bank: serialize o merge = merge o serialize" ~count:20
    QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (8000 + seed) in
      let dim = Edge_index.dim 16 in
      let stream () =
        Array.init 60 (fun _ -> (Prng.int rng dim, if Prng.bool rng then 1 else -1))
      in
      let a = s1_test_bank 33 and b = s1_test_bank 33 in
      Array.iter (fun (index, delta) -> LB.update a ~index ~delta) (stream ());
      Array.iter (fun (index, delta) -> LB.update b ~index ~delta) (stream ());
      (* Path 1: merge the live states, then serialize. *)
      let merged = LB.clone_zero a in
      LB.add merged a;
      LB.add merged b;
      let direct = s1_serialize merged in
      (* Path 2: serialize both, rehydrate into fresh states, merge those. *)
      let a' = LB.clone_zero a and b' = LB.clone_zero b in
      Ds_sketch.Linear_sketch.deserialize_into (module LB.Linear) a' (s1_serialize a);
      Ds_sketch.Linear_sketch.deserialize_into (module LB.Linear) b' (s1_serialize b);
      LB.add a' b';
      String.equal direct (s1_serialize a'))

let prop_s1_size_vs_two_pass =
  (* The measured-constant differential of E20: on the same stream the
     single-pass output may not exceed a small multiple of the two-pass
     output (both are (1 +- eps) sparsifiers; at this scale the chain's
     final step saturates, so the honest constant is its distance from the
     two-pass subsample). *)
  QCheck.Test.make ~name:"single-pass size within measured constant of two-pass" ~count:5
    QCheck.small_nat
    (fun seed ->
      let n = 32 and eps = 0.5 in
      let rng = Prng.create (9000 + seed) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.3 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:100 g in
      let one = S1.run (Prng.split rng) ~n ~params:(S1.default_params ~n ~eps) ~eps stream in
      let two = Sparsify.run (Prng.split rng) ~n ~params:(fast_params ~n) stream in
      let s1 = Weighted_graph.num_edges one.S1.sparsifier in
      let s2 = max 1 (Weighted_graph.num_edges two.Sparsify.sparsifier) in
      s1 <= 4 * s2 && float_of_int s1 <= S1.space_bound ~n ~eps)

let test_s1_state_roundtrip_decodes_identically () =
  (* The bank is the whole state: shipping it through LSK1 and decoding
     with the same seed must reproduce the sparsifier edge for edge. *)
  let n = 24 and eps = 0.5 in
  let rng = Prng.create 910 in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.25 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:80 g in
  let prm = S1.default_params ~n ~eps in
  let t = S1.create (Prng.create 911) ~n ~params:prm in
  Array.iter (fun u -> S1.update t ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u)) stream;
  let copy = LB.clone_zero (S1.bank t) in
  Ds_sketch.Linear_sketch.deserialize_into
    (module LB.Linear)
    copy
    (Ds_sketch.Linear_sketch.serialize (module LB.Linear) (S1.bank t));
  let r1 = S1.decode (Prng.create 912) t ~eps in
  let r2 = S1.decode (Prng.create 912) (S1.of_bank ~n ~params:prm copy) ~eps in
  check_bool "identical edge sets" true
    (Weighted_graph.edges r1.S1.sparsifier = Weighted_graph.edges r2.S1.sparsifier)

(* Single-pass output pinned bit for bit. Each case is a fixed, seeded,
   churned stream decoded at eps 0.5, so a change to decode that is not
   bit-identical shows up as a changed digest or chain profile. The digest
   is FNV-1a-64 over the sorted "u,v,weight;" list with weights printed
   exactly ([%h]). *)
let sparsifier_digest h =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (u, v, w) -> Buffer.add_string buf (Printf.sprintf "%d,%d,%h;" u v w))
    (List.sort compare (Weighted_graph.edges h));
  Printf.sprintf "%016Lx" (Wire.fnv1a64 (Buffer.contents buf))

(* name, seed, input graph, decoys, then the pinned digest and
   chain_sizes. *)
let pinned_s1_cases =
  [
    ( "gnp n=64 p=0.3 seed 31",
      31,
      (fun rng -> Gen.gnp rng ~n:64 ~p:0.3),
      400,
      "5d48113e2a2f1a66",
      "74,153,299,454,557,581,590,591,593,592,593,591,593,593,591,593,592,593,592,593,593,593,593" );
    ( "complete n=96 seed 37",
      37,
      (fun _ -> Gen.complete 96),
      600,
      "8a869f2a05519f3d",
      "579,711,1161,1798,2603,3074,3008,3419,3293,3482,3405,3486,3240,3472,3448,3378,3496,3505,3460,3657,3402,3382,3375,3501,3340"
    );
  ]

let test_s1_pinned_output () =
  List.iter
    (fun (name, seed, graph, decoys, digest, sizes) ->
      let rng = Prng.create seed in
      let g = graph (Prng.split rng) in
      let n = Graph.n g and eps = 0.5 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys g in
      let r = S1.run (Prng.split rng) ~n ~params:(S1.default_params ~n ~eps) ~eps stream in
      Alcotest.(check string) (name ^ " digest") digest (sparsifier_digest r.S1.sparsifier);
      Alcotest.(check string)
        (name ^ " chain_sizes")
        sizes
        (String.concat "," (Array.to_list (Array.map string_of_int r.S1.chain_sizes)));
      let base = weighted_of_multigraph (Update.final_graph ~n stream) in
      let b = Spectral.pencil_bounds ~base ~candidate:r.S1.sparsifier in
      check_bool
        (Printf.sprintf "%s pencil [%.3f, %.3f] within 1 +- eps" name b.Spectral.lambda_min
           b.Spectral.lambda_max)
        true
        (b.Spectral.lambda_min >= 1.0 -. eps && b.Spectral.lambda_max <= 1.0 +. eps))
    pinned_s1_cases

let test_s1_compresses_dense () =
  (* At n = 256 and eps 0.5, n log n / eps^2 (8192) is well below |E|
     (32640), so the chain must return fewer edges than its input; the exact
     pencil stays the judge of quality. At n = 64 the chain saturates and
     returns its input, so only a case this dense can fail on size. *)
  let n = 256 and eps = 0.5 in
  let rng = Prng.create 43 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:4000 (Gen.complete n) in
  let base = weighted_of_multigraph (Update.final_graph ~n stream) in
  let r = S1.run (Prng.split rng) ~n ~params:(S1.default_params ~n ~eps) ~eps stream in
  let edges_in = Weighted_graph.num_edges base in
  let edges_out = Weighted_graph.num_edges r.S1.sparsifier in
  check_bool
    (Printf.sprintf "%d of %d edges kept (ratio %.3f)" edges_out edges_in
       (float_of_int edges_out /. float_of_int edges_in))
    true (edges_out < edges_in);
  let b = Spectral.pencil_bounds ~base ~candidate:r.S1.sparsifier in
  check_bool
    (Printf.sprintf "pencil [%.3f, %.3f] within 1 +- eps" b.Spectral.lambda_min
       b.Spectral.lambda_max)
    true
    (b.Spectral.lambda_min >= 1.0 -. eps && b.Spectral.lambda_max <= 1.0 +. eps)

let () =
  Alcotest.run "sparsifier"
    [
      ( "estimate",
        [
          Alcotest.test_case "orders resistances" `Slow test_estimate_orders_resistances;
          Alcotest.test_case "correlates with resistance" `Slow
            test_estimate_correlates_with_resistance;
          Alcotest.test_case "exact mode" `Quick test_estimate_exact_mode;
        ] );
      ( "sample_spanner",
        [
          Alcotest.test_case "semantics" `Quick test_sample_spanner_semantics;
          Alcotest.test_case "no duplicates" `Quick test_sample_spanner_no_duplicates;
        ] );
      ( "sparsify",
        [
          Alcotest.test_case "quality" `Slow test_sparsify_quality;
          Alcotest.test_case "under churn" `Slow test_sparsify_under_churn;
          Alcotest.test_case "exact oracle ablation" `Slow test_sparsify_exact_oracle_ablation;
          Alcotest.test_case "preserves bridge" `Slow test_sparsify_preserves_bridge;
          Alcotest.test_case "weighted wrapper" `Slow test_weighted_sparsify;
        ] );
      ( "uniform_baseline",
        [
          Alcotest.test_case "loses bridges" `Quick test_uniform_loses_bridges;
          Alcotest.test_case "fine on dense" `Quick test_uniform_unbiased_on_expanders;
          Alcotest.test_case "matching p" `Quick test_uniform_matching_p;
        ] );
      ( "ss08",
        [
          Alcotest.test_case "quality" `Quick test_ss08_quality;
          Alcotest.test_case "expected size" `Quick test_ss08_expected_size_formula;
        ] );
      ( "sparsify1p",
        [
          Alcotest.test_case "eps boundaries" `Quick test_s1_eps_boundaries;
          Alcotest.test_case "empty stream" `Quick test_s1_empty_stream;
          Alcotest.test_case "state roundtrip decodes identically" `Slow
            test_s1_state_roundtrip_decodes_identically;
          QCheck_alcotest.to_alcotest prop_s1_pencil;
          QCheck_alcotest.to_alcotest prop_s1_serialize_merge_commutes;
          QCheck_alcotest.to_alcotest prop_s1_size_vs_two_pass;
          Alcotest.test_case "pinned output" `Slow test_s1_pinned_output;
          Alcotest.test_case "compresses K_256" `Slow test_s1_compresses_dense;
        ] );
    ]
