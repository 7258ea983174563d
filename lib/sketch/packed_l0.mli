(** An L0-sampler codec over externally owned {!Ds_util.Words} state.

    This is the payload format for {!Sketch_table} cells: Algorithm 2 stores,
    for each key [v], a sketch of [N(v) ∩ Tu ∩ Y_j] from which one neighbour
    must be recoverable. The state here is a flat word buffer under plain
    componentwise addition — even the field fingerprints are kept as
    unreduced integer accumulators and only reduced at decode time — so a
    containing structure can add/subtract payloads without knowing their
    semantics. That property is what makes the table's peeling sound.

    Layout: [reps] independent repetitions, each with its own geometric level
    hash; per level a [2 x 2*sparsity] grid of 1-sparse (count, index-sum,
    fingerprint) triples, peeled at decode time. *)

type config
(** Immutable hash functions and dimensions; shared by all states using it. *)

type params = {
  reps : int;  (** independent repetitions; failure decays exponentially *)
  sparsity : int;  (** per-level peelable support *)
  hash_degree : int;
}

val default_params : params
(** [reps = 2], [sparsity = 3], [hash_degree = 6]. *)

val make_config : Ds_util.Prng.t -> dim:int -> params:params -> config

val state_len : config -> int
(** Word length of the state window required. *)

type plan
(** One update, hashed: the cells it touches, as offsets relative to a state
    window, and the increments they receive. Mutable scratch, reused across
    updates; one per writer. *)

val plan : config -> plan
(** A reusable plan for updates under [config]. *)

val prepare : plan -> index:int -> delta:int -> unit
(** [prepare p ~index ~delta] hashes coordinate [index] once — its
    geometric level in each rep and its bucket in each (rep, row) — and
    records the cells and increments of adding [delta] to it, replacing
    what [p] held.
    @raise Invalid_argument if [index] is outside [0, dim). *)

val apply : plan -> Ds_util.Words.t -> off:int -> unit
(** [apply p state ~off] adds the prepared update to the window
    [state.(off .. off + state_len - 1)]. Applying one plan to several
    windows gives each the words {!update} would. *)

val update : config -> Ds_util.Words.t -> off:int -> index:int -> delta:int -> unit
(** Add [delta] to coordinate [index] of the vector sketched in
    [state.(off .. off + state_len - 1)]: {!prepare} on a fresh plan, then
    {!apply}. Callers writing one coordinate into several windows keep a
    plan of their own instead. *)

val decode : config -> Ds_util.Words.t -> off:int -> (int * int) option
(** [Some (index, value)] for one non-zero coordinate (near-uniform among
    the support), or [None] if the vector is zero or decoding failed. *)

val dim : config -> int
val config_space_in_words : config -> int

(** The codec bundled with one state array of its own — the packed sampler
    as a first-class sketch. {!Sketch_table} cells keep using the
    external-state API above; this form is what the linear-sketch interface
    registers. *)
module Owned : sig
  type t

  val create : Ds_util.Prng.t -> dim:int -> params:params -> t
  val config : t -> config

  val update : t -> index:int -> delta:int -> unit
  val sample : t -> (int * int) option

  val clone_zero : t -> t
  val copy : t -> t
  val reset : t -> unit
  val add : t -> t -> unit
  val sub : t -> t -> unit
  val space_in_words : t -> int
  val write : t -> Ds_util.Wire.sink -> unit

  val read_into : mode:Ds_util.Words.mode -> t -> Ds_util.Wire.source -> unit
  (** @raise Failure on mismatch or truncation. *)
end

module Linear : Linear_sketch.S with type t = Owned.t
