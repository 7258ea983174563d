(* Golden envelope fixture generator.

     dune exec test/golden_gen.exe -- [OUTDIR]

   Writes one serialized envelope per registered linear family, produced
   from the deterministic golden update stream in Linear_families, plus
   the TPS1, SCP1 and traced LSK1/SRV1 fixtures of Golden_fixtures.
   The committed .lsk1 fixtures under test/golden/ were generated at the
   commit immediately preceding the Words (off-heap buffer) refactor, the
   others at the commit preceding the shared envelope codec; test_linear
   asserts that today's encoders reproduce them byte-for-byte, pinning
   every wire format across representation changes. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write file bytes =
    let path = Filename.concat dir file in
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    Printf.printf "%-22s %6d bytes -> %s\n" file (String.length bytes) path
  in
  List.iter
    (fun fam -> write (Linear_families.name fam ^ ".lsk1") (Linear_families.golden_bytes fam))
    Linear_families.all;
  List.iter (fun (file, bytes) -> write file (bytes ())) Golden_fixtures.all
