open Ds_util

module type S = sig
  type t

  val family : string
  val dim : t -> int
  val shape : t -> int array
  val clone_zero : t -> t
  val add : t -> t -> unit
  val sub : t -> t -> unit
  val update : t -> index:int -> delta:int -> unit
  val reset : t -> unit
  val space_in_words : t -> int
  val write_body : t -> Wire.sink -> unit
  val read_body : mode:Words.mode -> t -> Wire.source -> unit
end

type 'a impl = (module S with type t = 'a)

let magic = "LSK1"

(* Decode/encode telemetry: one counter bump per envelope, never per
   byte (no-ops unless Ds_obs.Metrics is enabled). *)
let m_ser_count = Ds_obs.Metrics.counter "sketch.serialize.count"
let m_ser_bytes = Ds_obs.Metrics.counter "sketch.serialize.bytes"
let m_dec_ok = Ds_obs.Metrics.counter "sketch.decode.ok"
let m_dec_err = Ds_obs.Metrics.counter "sketch.decode.err"

let serialize (type a) ?trace ((module L) : a impl) (t : a) =
  let sink = Envelope.create magic in
  Wire.write_tag sink L.family;
  Wire.write_array sink (L.shape t);
  L.write_body t sink;
  let msg = Envelope.seal ?trace sink in
  Ds_obs.Metrics.incr m_ser_count 1;
  Ds_obs.Metrics.incr m_ser_bytes (String.length msg);
  msg

type error =
  | Truncated of { length : int; min_length : int }
  | Checksum_mismatch
  | Wrong_magic of { got : string }
  | Wrong_family of { expected : string; got : string }
  | Shape_mismatch of { expected : int array; got : int array }
  | Malformed_body of string
  | Trailing_bytes of int

let of_envelope : Envelope.error -> error = function
  | Truncated { length; min_length } -> Truncated { length; min_length }
  | Checksum_mismatch -> Checksum_mismatch
  | Wrong_magic { got; _ } -> Wrong_magic { got }
  | Malformed_body m -> Malformed_body m
  | Trailing_bytes n -> Trailing_bytes n

let error_to_string = function
  | Truncated { length; min_length } ->
      Printf.sprintf "truncated message (%d bytes, need at least %d)" length min_length
  | Checksum_mismatch -> "checksum mismatch (corrupt or truncated message)"
  | Wrong_magic { got } -> Printf.sprintf "bad magic %S (expected %S)" got magic
  | Wrong_family { expected; got } ->
      Printf.sprintf "family mismatch: message is %S, receiver is %S" got expected
  | Shape_mismatch { expected; got } ->
      Printf.sprintf "shape mismatch: message [%s], receiver [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int got)))
        (String.concat ";" (Array.to_list (Array.map string_of_int expected)))
  | Malformed_body msg -> Printf.sprintf "malformed body (%s)" msg
  | Trailing_bytes n -> Printf.sprintf "%d trailing bytes after the body" n

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* Every check the envelope and the header make, then the family's body
   parser storing per [mode]. An absorb first parses the whole body storing
   nothing, so a message that is malformed anywhere (a forged one can pass
   the checksum) is rejected before a single counter of [t] changes; only
   once the envelope has accepted it is the body parsed again, adding in
   place. *)
let decode_into (type a) ((module L) : a impl) (t : a) ~mode data =
  let tracing = Ds_obs.Trace.enabled () in
  let t0 = if tracing then Ds_obs.Clock.now_ns () else 0L in
  let fields src =
    let family = Wire.read_tag src in
    if family <> L.family then Error (Wrong_family { expected = L.family; got = family })
    else
      let shape = Wire.read_array src in
      if shape <> L.shape t then Error (Shape_mismatch { expected = L.shape t; got = shape })
      else begin
        let body = Wire.fork src in
        L.read_body ~mode:(if mode = Words.Add then Check else mode) t src;
        Ok body
      end
  in
  match Envelope.decode ~magic ~error:of_envelope fields data with
  | Ok (body, trace) ->
      if mode = Add then L.read_body ~mode t body;
      Ds_obs.Metrics.incr m_dec_ok 1;
      (* The decode span parents under the *sender's* shipping span via
         the carried context, linking the receiving process into the
         coordinator's trace. *)
      (match trace with
      | Some ctx when tracing ->
          Ds_obs.Trace.record_linked "sketch.decode" ctx ~start_ns:t0
            ~dur_ns:(Ds_obs.Clock.elapsed_ns t0)
      | _ -> ());
      Ok ()
  | Error _ as e ->
      Ds_obs.Metrics.incr m_dec_err 1;
      e

let deserialize_result impl t data = decode_into impl t ~mode:Set data

let deserialize_into impl t data =
  match deserialize_result impl t data with
  | Ok () -> ()
  | Error e -> failwith ("Linear_sketch: " ^ error_to_string e)

let absorb_result impl t data = decode_into impl t ~mode:Add data

let absorb impl t data =
  match absorb_result impl t data with
  | Ok () -> ()
  | Error e -> failwith ("Linear_sketch: " ^ error_to_string e)

module Packed = struct
  type t = T : 'a impl * 'a -> t

  let pack impl v = T (impl, v)
  let family (T ((module L), _)) = L.family
  let dim (T ((module L), v)) = L.dim v
  let shape (T ((module L), v)) = L.shape v
  let space_in_words (T ((module L), v)) = L.space_in_words v
  let update (T ((module L), v)) ~index ~delta = L.update v ~index ~delta
  let reset (T ((module L), v)) = L.reset v
  let clone_zero (T ((module L), v)) = T ((module L), L.clone_zero v)
  let serialize ?trace (T (impl, v)) = serialize ?trace impl v
  let deserialize_into (T (impl, v)) data = deserialize_into impl v data
  let deserialize_result (T (impl, v)) data = deserialize_result impl v data
  let absorb (T (impl, v)) data = absorb impl v data
  let absorb_result (T (impl, v)) data = absorb_result impl v data
end
