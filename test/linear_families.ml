(* The registry of every linear-sketch family, shared by the test suites
   (test_linear.ml) and the golden-fixture generator (golden_gen.ml).

   A maker called twice returns two structurally identical
   (wire-compatible) fresh sketches, because it reseeds from the same
   constant.  The existential [fam] keeps the concrete state type
   available so properties can exercise the typed [add]/[sub] kernels
   directly (including aliased calls like [add t t]), which the packed
   form cannot express. *)

open Ds_util
open Ds_sketch

type fam =
  | F : {
      name : string;
      make : unit -> 'a;
      impl : 'a Linear_sketch.impl;
    }
      -> fam

let name (F f) = f.name
let pack (F f) = Linear_sketch.Packed.pack f.impl (f.make ())

let agm_n = 16
let agm_params = Ds_agm.Agm_sketch.default_params ~n:agm_n

let all : fam list =
  [
    F
      {
        name = "one_sparse";
        make = (fun () -> One_sparse.create (Prng.create 101) ~dim:100);
        impl = (module One_sparse.Linear);
      };
    F
      {
        name = "sparse_recovery";
        make =
          (fun () ->
            Sparse_recovery.create (Prng.create 102) ~dim:100
              ~params:(Sparse_recovery.default_params ~sparsity:4));
        impl = (module Sparse_recovery.Linear);
      };
    F
      {
        name = "count_sketch";
        make =
          (fun () ->
            Count_sketch.create (Prng.create 103) ~dim:100
              ~params:{ Count_sketch.rows = 3; cols = 32; hash_degree = 4 });
        impl = (module Count_sketch.Linear);
      };
    F
      {
        name = "ams_f2";
        make =
          (fun () ->
            Ams_f2.create (Prng.create 104) ~dim:100
              ~params:{ Ams_f2.rows = 4; reps = 3; hash_degree = 4 });
        impl = (module Ams_f2.Linear);
      };
    F
      {
        name = "f0";
        make =
          (fun () ->
            F0.create (Prng.create 105) ~dim:100
              ~params:{ F0.sparsity = 4; reps = 2; hash_degree = 4 });
        impl = (module F0.Linear);
      };
    F
      {
        name = "l0_sampler";
        make =
          (fun () ->
            L0_sampler.create (Prng.create 106) ~dim:100 ~params:L0_sampler.default_params);
        impl = (module L0_sampler.Linear);
      };
    F
      {
        name = "packed_l0";
        make =
          (fun () ->
            Packed_l0.Owned.create (Prng.create 107) ~dim:100 ~params:Packed_l0.default_params);
        impl = (module Packed_l0.Linear);
      };
    F
      {
        name = "sketch_table";
        make =
          (fun () ->
            Sketch_table.create (Prng.create 108) ~key_dim:100 ~capacity:16 ~rows:3
              ~hash_degree:4 ~payload_len:0);
        impl = (module Sketch_table.Linear);
      };
    F
      {
        name = "agm";
        make = (fun () -> Ds_agm.Agm_sketch.create (Prng.create 109) ~n:agm_n ~params:agm_params);
        impl = (module Ds_agm.Agm_sketch.Linear);
      };
    F
      {
        name = "connectivity";
        make =
          (fun () -> Ds_agm.Connectivity.create (Prng.create 110) ~n:agm_n ~params:agm_params);
        impl = (module Ds_agm.Connectivity.Linear);
      };
    F
      {
        name = "k_connectivity";
        make =
          (fun () ->
            Ds_agm.K_connectivity.create (Prng.create 111) ~n:agm_n ~k:2 ~params:agm_params);
        impl = (module Ds_agm.K_connectivity.Linear);
      };
    F
      {
        name = "bipartiteness";
        make =
          (fun () -> Ds_agm.Bipartiteness.create (Prng.create 112) ~n:agm_n ~params:agm_params);
        impl = (module Ds_agm.Bipartiteness.Linear);
      };
    F
      {
        name = "mst";
        make =
          (fun () ->
            Ds_agm.Mst.create (Prng.create 113) ~n:agm_n
              ~params:
                { Ds_agm.Mst.gamma = 0.5; w_min = 1.0; w_max = 8.0; sketch = agm_params });
        impl = (module Ds_agm.Mst.Linear);
      };
    F
      {
        name = "sparsify1p";
        make =
          (fun () ->
            Ds_sparsify.Level_bank.create (Prng.create 115)
              ~dim:(Ds_graph.Edge_index.dim agm_n)
              ~params:
                {
                  Ds_sparsify.Level_bank.banks = 2;
                  levels = 6;
                  rows = 3;
                  cols = 32;
                  hash_degree = 4;
                });
        impl = (module Ds_sparsify.Level_bank.Linear);
      };
    F
      {
        name = "agm_copy";
        make =
          (fun () ->
            Ds_agm.Agm_sketch.Copy.slice
              (Ds_agm.Agm_sketch.create (Prng.create 114) ~n:agm_n ~params:agm_params)
              2);
        impl = (module Ds_agm.Agm_sketch.Copy.Linear);
      };
  ]

let find name' = List.find (fun f -> name f = name') all

(* A deterministic pseudo-random update vector over a [dim]-sized index
   space, parameterised by a seed.  The draw order (index then sign) is
   part of the golden-fixture contract: fixtures were generated from
   exactly this stream at the pre-Words commit. *)
let update_stream ?(count = 30) ~dim seed =
  let rng = Prng.create (0x5EED + seed) in
  Array.init count (fun _ -> (Prng.int rng dim, if Prng.bool rng then 2 else -1))

let apply_stream (type a) ((module L) : a Linear_sketch.impl) (t : a) updates =
  Array.iter (fun (index, delta) -> L.update t ~index ~delta) updates

(* The stream the committed golden envelopes under test/golden/ were
   produced from (seed 42, 40 updates over each family's own dim). *)
let golden_seed = 42
let golden_count = 40

let golden_bytes ?trace (F f) =
  let t = f.make () in
  let (module L) = f.impl in
  apply_stream f.impl t (update_stream ~count:golden_count ~dim:(L.dim t) golden_seed);
  Linear_sketch.serialize ?trace f.impl t
