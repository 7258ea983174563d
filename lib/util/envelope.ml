type trace = { trace_id : int64; span_id : int64 }

type error =
  | Truncated of { length : int; min_length : int }
  | Checksum_mismatch
  | Wrong_magic of { expected : string; got : string }
  | Malformed_body of string
  | Trailing_bytes of int

let error_to_string = function
  | Truncated { length; min_length } ->
      Printf.sprintf "truncated message (%d bytes, need at least %d)" length min_length
  | Checksum_mismatch -> "checksum mismatch (corrupt or truncated message)"
  | Wrong_magic { expected; got } -> Printf.sprintf "bad magic %S (expected %S)" got expected
  | Malformed_body m -> Printf.sprintf "malformed body (%s)" m
  | Trailing_bytes n -> Printf.sprintf "%d trailing bytes" n

let checksum_bytes = 8
let trace_tag = "TCTX"

let create magic =
  let sink = Wire.sink () in
  Wire.write_tag sink magic;
  sink

let seal ?trace sink =
  (match trace with
  | Some { trace_id; span_id } ->
      Wire.write_tag sink trace_tag;
      Wire.write_fixed64 sink trace_id;
      Wire.write_fixed64 sink span_id
  | None -> ());
  (* Appending the checksum to [sink] could double its buffer; build the
     result at its final size instead. *)
  let payload = Wire.contents sink in
  let len = String.length payload in
  let out = Bytes.create (len + checksum_bytes) in
  Bytes.blit_string payload 0 out 0 len;
  Bytes.set_int64_le out len (Wire.fnv1a64 payload);
  Bytes.unsafe_to_string out

let verify data ~len =
  len >= 0
  && len + checksum_bytes <= String.length data
  && Wire.fnv1a64 ~len data = String.get_int64_le data len

(* After the fields: nothing, or exactly one trailer (tag + 16 bytes). *)
let read_trailer src =
  match Wire.remaining src with
  | 0 -> Ok None
  | n -> (
      match Wire.read_tag src with
      | tag when tag = trace_tag && Wire.remaining src = 16 ->
          let trace_id = Wire.read_fixed64 src in
          let span_id = Wire.read_fixed64 src in
          Ok (Some { trace_id; span_id })
      | _ | (exception Failure _) -> Error (Trailing_bytes n))

(* The magic, then the caller's fields; a [Failure] from either is a
   malformed body. *)
let read_fields ~magic ~error fields src =
  try
    let got = Wire.read_tag src in
    if got <> magic then Error (error (Wrong_magic { expected = magic; got })) else fields src
  with Failure m -> Error (error (Malformed_body m))

let decode ~magic ~error fields data =
  let length = String.length data in
  (* the magic tag, its length byte and at least one field byte *)
  let min_length = checksum_bytes + String.length magic + 2 in
  if length < min_length then Error (error (Truncated { length; min_length }))
  else
    let len = length - checksum_bytes in
    if not (verify data ~len) then Error (error Checksum_mismatch)
    else
      let src = Wire.source_prefix data len in
      match read_fields ~magic ~error fields src with
      | Error e -> Error e
      | Ok v -> (
          match read_trailer src with
          | Ok trace -> Ok (v, trace)
          | Error e -> Error (error e))

let decode_prefix ~magic ~error fields data =
  let src = Wire.source data in
  match read_fields ~magic ~error fields src with
  | Error e -> Error e
  | Ok v ->
      let len = String.length data - Wire.remaining src in
      if verify data ~len then Ok (v, len + checksum_bytes) else Error (error Checksum_mismatch)
