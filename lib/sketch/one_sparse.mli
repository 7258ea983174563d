(** Exact recovery of 1-sparse vectors from a 3-word linear sketch.

    This is the Ganguly decoder: for a vector [x] over index space
    [0, dim) updated by signed increments, maintain

    - [c0 = sum_i x_i] (exact integer),
    - [c1 = sum_i x_i * i] (exact integer),
    - [c2 = sum_i x_i * r^(i+1)] in [F_p] for a random [r].

    If [x] has exactly one non-zero coordinate [i] with value [w], then
    [c1 / c0 = i] and [c2 = w * r^(i+1)]; the fingerprint test makes a false
    positive occur with probability at most [dim / p] per query. This is the
    atom from which every other sketch in the library is built (Theorem 8's
    recovery matrix is a hashed array of these). *)

type t
(** Mutable sketch state (3 words + the shared fingerprint base). *)

type result =
  | Zero  (** the sketched vector is (whp) identically zero *)
  | One of int * int  (** [One (i, w)]: single non-zero coordinate [i] of value [w] *)
  | Many  (** more than one non-zero coordinate (or fingerprint mismatch) *)

val create : Ds_util.Prng.t -> dim:int -> t
(** Fresh sketch of the zero vector over [0, dim). Two sketches built from
    generators with equal state are {e compatible}: they use the same
    fingerprint base and may be merged. *)

val update : t -> index:int -> delta:int -> unit
(** Add [delta] to coordinate [index]. O(1) field ops: the fingerprint power
    [r^(index+1)] comes from a cached ladder ({!Ds_util.Field.Pow}) built
    once per base at {!create} time and shared by {!copy}/{!clone_zero}. *)

val update_batch : t -> (int * int) array -> unit
(** [update_batch t pairs] applies [(index, delta)] pairs in order;
    equivalent to folding {!update} over the array. *)

val clone_zero : t -> t
(** A fresh zero sketch compatible with [t]: shares the fingerprint base and
    the (immutable) power ladder. Allocates a private 3-word buffer. *)

(** {2 Low-level kernel API}

    Containers that hash one update into many cells sharing a fingerprint
    base ({!Sparse_recovery} rows) compute the fingerprint term once and
    apply it per cell. Misuse voids decoding — these skip every check. *)

val state_words : int
(** 3: the number of buffer words a cell occupies (c0, c1, c2). *)

val compatible : t -> t -> bool
(** Same dimension and fingerprint base — the merge precondition.
    Containers check this once per merge instead of once per cell. *)

val view : t -> words:Ds_util.Words.t -> off:int -> t
(** [view t ~words ~off] is a sketch compatible with [t] whose counters
    live at [words.[off .. off+2]] — an alias, not a copy.  This is how
    containers embed their cell grid in one contiguous allocation: the
    triple layout matches {!Ds_util.Words.add_tri}, so the whole grid
    merges with one buffer-level call. *)

val fingerprint_pow : t -> int -> int
(** [fingerprint_pow t index] is [r^(index+1)] from the cached ladder.
    Requires [0 <= index < dim] (unchecked). *)

val update_prepared : t -> index:int -> delta:int -> term:int -> unit
(** [update_prepared t ~index ~delta ~term] adds [delta] at [index] where
    [term] must equal [Field.scale_int delta (fingerprint_pow t index)].
    No bounds check. *)

val decode : t -> result
(** Classify the current vector. *)

val is_zero : t -> bool
(** [decode t = Zero], cheaper to call. *)

val add : t -> t -> unit
(** [add dst src] sets [dst := dst + src] (compatible sketches only). *)

val sub : t -> t -> unit
(** [sub dst src] sets [dst := dst - src]. *)

val copy : t -> t

val reset : t -> unit
(** Back to the zero vector. *)

val space_in_words : t -> int

val write : t -> Ds_util.Wire.sink -> unit
(** Serialise the counters (structure is seed-derived and not shipped). *)

val read_into : mode:Ds_util.Words.mode -> t -> Ds_util.Wire.source -> unit
(** Store serialised counters into [t] per [mode] ({!Ds_util.Words.mode}).
    [t] must have been built from the same seed/dimension as the writer; the
    dimension is checked.
    @raise Failure on tag/dimension mismatch or truncation. *)

module Linear : Linear_sketch.S with type t = t
(** The universal interface: {!Linear_sketch.serialize} and friends over
    this sketch. *)
