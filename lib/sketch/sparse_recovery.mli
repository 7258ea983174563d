(** Exact recovery of s-sparse vectors (the paper's [SKETCH_B] / [DECODE]
    primitive, Theorem 8 [CM06]).

    The sketch hashes the index space into [2s] buckets in each of [rows]
    independent rows; each bucket is a {!One_sparse} decoder. Decoding peels:
    any bucket holding a single surviving coordinate reveals it, the
    coordinate is subtracted from every row, and the process repeats. For a
    vector of support at most [s] this recovers everything with probability
    [1 - 2^-Omega(rows)]; failure is {e detected} (some bucket refuses to
    clear), so — unlike the paper's [CM06] matrix — no side F0 sketch is
    needed to know whether decoding succeeded (see DESIGN.md).

    The sketch is linear: [add]/[sub]/[merge] operate bucket-wise, which is
    what lets Algorithm 1 sum the sketches [S^r_j(v)] along a cluster tree. *)

type t

type params = {
  sparsity : int;  (** recovery budget [s]: decode succeeds whp when [||x||_0 <= s] *)
  rows : int;  (** independent hash rows; failure probability [2^-Omega(rows)] *)
  hash_degree : int;  (** independence of the bucket hashes *)
}

val default_params : sparsity:int -> params
(** [rows = 4], [hash_degree = 6] — empirically sound for [n <= 4096]
    (validated by the property tests in [test/test_sketch.ml]). *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t
(** Fresh sketch of the zero vector over [0, dim). Generators with equal
    state yield compatible (mergeable) sketches. *)

val update : t -> index:int -> delta:int -> unit
(** Add [delta] to coordinate [index]; O(rows) bucket updates. The key fold
    and the fingerprint term are computed once per update (not once per
    row) — all cells share one fingerprint base by construction. *)

val update_batch : t -> (int * int) array -> unit
(** [(index, delta)] pairs, applied in order; equals the fold of {!update}. *)

val update_slice : t -> (int * int) array -> pos:int -> len:int -> unit
(** [update_batch] over [updates.(pos .. pos+len-1)] without copying the
    slice (the parallel engine's chunk entry point). *)

val update_folded : t -> index:int -> folded:int -> delta:int -> unit
(** {!update} with the key fold hoisted out: [folded] must equal
    [Kwise.fold_key index]. No bounds check — kernel API for containers
    ({!L0_sampler}, {!F0}) that feed one key to many sketches. *)

val update_folded_pair : t -> t -> index:int -> folded:int -> delta:int -> unit
(** [update_folded_pair t s ~index ~folded ~delta] applies [+delta] to [t]
    and [-delta] to [s] with one set of bucket evaluations and one
    fingerprint term. Precondition: [t] and [s] are clones sharing hash
    functions and fingerprint base (e.g. built with {!clone_zero} from one
    prototype) — unchecked; the edge-update kernel of
    {!Ds_agm.Agm_sketch}. *)

val update_pows : t -> index:int -> x:int -> x2:int -> x4:int -> delta:int -> unit
(** {!update_folded} with the folded key's square and fourth power also
    hoisted ([x = Kwise.fold_key index], [x2 = Field.mul x x],
    [x4 = Field.mul x2 x2]); containers evaluating many rows/levels at one
    key compute the powers once (see {!Ds_util.Kwise.to_range_pows}). *)

val update_pows_pair : t -> t -> index:int -> x:int -> x2:int -> x4:int -> delta:int -> unit
(** {!update_folded_pair} with precomputed key powers, as {!update_pows}. *)


val decode : t -> (int * int) list option
(** Full recovery attempt. [Some assoc] lists every non-zero coordinate with
    its value (unordered); [None] means the vector was (detectably) not
    [s]-sparse or an internal decode failed. Non-destructive. *)

val decode_any : t -> (int * int) option
(** Cheapest query: some non-zero coordinate of the vector, or [None] if the
    vector is zero or nothing can be peeled. Matches the paper's "an
    arbitrary element of the support" in Algorithm 1 line 14. *)

val is_zero : t -> bool
(** Whether the sketched vector is (whp) identically zero. *)

val add : t -> t -> unit
val sub : t -> t -> unit
val copy : t -> t

val clone_zero : t -> t
(** A fresh zero sketch {e compatible} with [t] (same hashes and fingerprint
    bases, new counters). Large sketch arrays (one instance per vertex) use
    this to share the immutable hash state physically. *)

val reset : t -> unit
(** Zero every counter in place — one fill of the underlying buffer. *)

val state_words : t -> int
(** Exact word count of the cell-grid buffer ([rows * cols * 3]): what a
    container must reserve to {!clone_into} this sketch. *)

val compatible : t -> t -> bool
(** Same shape and fingerprint base — the merge precondition, checked
    once per container merge instead of once per cell. *)

val clone_into : t -> words:Ds_util.Words.t -> off:int -> t
(** [clone_into t ~words ~off] is {!clone_zero} whose counters live at
    [words.[off .. off + state_words t - 1]] (an alias of the caller's
    buffer, zeroed by the caller).  Containers ({!L0_sampler}, {!F0})
    use this to keep a whole tower of sketches in one allocation. *)

val merge_many : t list -> t
(** Sum of compatible sketches as a fresh sketch.
    @raise Invalid_argument on the empty list. *)

val space_in_words : t -> int
val dim : t -> int
val params : t -> params

val write : t -> Ds_util.Wire.sink -> unit
(** Serialise all cell counters (hashes are seed-derived, not shipped). *)

val read_into : mode:Ds_util.Words.mode -> t -> Ds_util.Wire.source -> unit
(** Store a counter body into [t] per [mode] ({!Ds_util.Words.mode}); [t]
    must share the writer's seed/shape.
    @raise Failure on mismatch or truncation. *)

module Linear : Linear_sketch.S with type t = t
