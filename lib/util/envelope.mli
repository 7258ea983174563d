(** The checksummed envelope every message and file of the library travels
    in: LSK1 sketch messages, SRV1 service frames, TPS1 pass-boundary
    checkpoints and the header of SCP1 generation files.

    {v
    tag  magic              format tag, e.g. "LSK1"; it is also the version
    ...                     format-defined fields ({!Wire} encodings)
    tag  "TCTX"             optional trace-context trailer:
    fixed64 trace_id          the sender's trace
    fixed64 span_id           the sender's span
    fixed64 checksum        FNV-1a-64 of every preceding byte
    v}

    The checksum sits at a fixed distance from the end, so truncation can
    never shift where a reader looks for it, and {!decode} verifies it
    before any field is parsed: random corruption is a typed error, never
    garbage state. The trailer is strictly additive: an envelope written without
    it is byte-identical to one from a writer that predates it. *)

type trace = { trace_id : int64; span_id : int64 }
(** The carried trace context ({!Ds_obs.Trace.context} is this type). *)

(** Why a decode was rejected, in the order the checks run. *)
type error =
  | Truncated of { length : int; min_length : int }
      (** shorter than any well-formed envelope *)
  | Checksum_mismatch  (** corrupt or truncated bytes, caught before parsing *)
  | Wrong_magic of { expected : string; got : string }
  | Malformed_body of string
      (** the fields failed to parse despite a valid checksum (forged or
          writer bug) *)
  | Trailing_bytes of int
      (** the fields did not consume the envelope, and what follows them
          is not one well-formed trace-context trailer *)

val error_to_string : error -> string

val create : string -> Wire.sink
(** [create magic] is a sink holding the magic tag; append the fields. *)

val seal : ?trace:trace -> Wire.sink -> string
(** Append the trailer (when [?trace] is given) and the checksum: the
    finished envelope. *)

val decode :
  magic:string ->
  error:(error -> 'e) ->
  (Wire.source -> ('a, 'e) result) ->
  string ->
  ('a * trace option, 'e) result
(** [decode ~magic ~error fields data] checks the length, the checksum and
    the magic, then runs [fields] on a source over the bytes between the
    magic and the trailer (a [Failure] it raises is [Malformed_body]), then
    requires that nothing or exactly one trailer remains. [error] maps the
    envelope's own rejections into the caller's error type. The message is
    not copied. *)

val decode_prefix :
  magic:string ->
  error:(error -> 'e) ->
  (Wire.source -> ('a, 'e) result) ->
  string ->
  ('a * int, 'e) result
(** For an envelope followed by raw bytes (the SCP1 generation header,
    whose parts follow it): read the magic and the fields from the start
    of [data], then verify the checksum that must follow them. Returns the
    offset just past the checksum. The fields are parsed before the
    checksum is verified, because only they tell where it is; a caller
    must not act on them before this returns [Ok]. There is no trailer. *)
