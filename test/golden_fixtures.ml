(* Envelope fixtures beyond the per-family LSK1 ones: a TPS1 pass-1
   checkpoint, an SCP1 generation image, a traced LSK1 envelope and a
   traced SRV1 [Ingest] frame.  golden_gen.ml writes them next to the
   .lsk1 fixtures and test_linear.ml asserts that today's encoders
   reproduce the committed files byte-for-byte, so every checksummed
   envelope format the library writes is pinned. *)

open Ds_util

let trace = { Ds_obs.Trace.trace_id = 0x0123_4567_89ab_cdefL; span_id = 0x7edc_ba98_7654_3210L }
let golden name = Linear_families.golden_bytes (Linear_families.find name)

(* A churned 12-vertex stream spelled out edge by edge, so the fixture
   depends on no graph or stream generator. *)
let tps1_n = 12

let tps1_stream () =
  let rng = Prng.create 7 in
  let ups = ref [] in
  for u = 0 to tps1_n - 2 do
    for v = u + 1 to tps1_n - 1 do
      match Prng.int rng 4 with
      | 0 -> ups := Ds_stream.Update.insert u v :: !ups
      | 1 -> ups := Ds_stream.Update.delete u v :: Ds_stream.Update.insert u v :: !ups
      | _ -> ()
    done
  done;
  Array.of_list (List.rev !ups)

let tps1 () =
  Ds_core.Two_pass_spanner.checkpoint (Prng.create 42) ~n:tps1_n
    ~params:(Ds_core.Two_pass_spanner.default_params ~k:2)
    (tps1_stream ())

let scp1 () =
  let open Ds_serve.Checkpoint in
  encode ~generation:7 ~tenant:"tenant-a"
    [
      {
        r_stream = "s0";
        r_family = "l0_sampler";
        r_n = 100;
        r_seed = 106;
        r_applied_seq = 12;
        r_parts = [ golden "l0_sampler" ];
      };
      {
        r_stream = "s1";
        r_family = "count_sketch";
        r_n = 100;
        r_seed = 103;
        r_applied_seq = 3;
        r_parts = [ golden "one_sparse"; golden "count_sketch" ];
      };
    ]

let lsk1_traced () = Linear_families.golden_bytes ~trace (Linear_families.find "l0_sampler")

let srv1_ingest_traced () =
  Ds_serve.Sframe.encode_request ~trace
    (Ds_serve.Sframe.Ingest
       { tenant = "tenant-a"; stream = "s0"; seq = 5; payload = golden "one_sparse" })

(* File name under test/golden/ and the bytes it must hold. *)
let all =
  [
    ("pass1.tps1", tps1);
    ("generation.scp1", scp1);
    ("lsk1_traced.bin", lsk1_traced);
    ("srv1_ingest_traced.bin", srv1_ingest_traced);
  ]
