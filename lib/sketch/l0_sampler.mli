(** L0 sampling: draw a (near-)uniform non-zero coordinate of a dynamically
    updated vector from a linear sketch.

    One {!Sparse_recovery} instance per geometric sampling level; sampling
    scans from the sparsest level downward, decodes the first level with a
    non-empty support and returns the member minimising an independent
    tie-break hash. This is the primitive [AGM12a] builds connectivity from,
    and the structure the paper's [Y_j] sets emulate (Section 3.2 notes the
    two are interchangeable). Uniformity is validated empirically in
    experiment E9. *)

type t

type params = {
  sparsity : int;  (** per-level recovery budget (>= 1) *)
  rows : int;  (** hash rows per level sketch *)
  hash_degree : int;
}

val default_params : params
(** [sparsity = 2], [rows = 3], [hash_degree = 6]. *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t

val update : t -> index:int -> delta:int -> unit
(** Expected O(rows) bucket updates (levels are nested, so a coordinate at
    level [l] touches [l + 1] sketches; E[l] = 1). The key fold happens once
    per update and is shared across levels and rows. *)

val update_batch : t -> (int * int) array -> unit
(** [(index, delta)] pairs, applied in order; equals the fold of {!update}. *)

val update_slice : t -> (int * int) array -> pos:int -> len:int -> unit
(** [update_batch] over [updates.(pos .. pos+len-1)] without copying the
    slice (the parallel engine's chunk entry point). *)

val clone_zero : t -> t
(** A fresh zero sampler compatible with [t], sharing its (immutable) hash
    functions and fingerprint ladders. O(sketch cells), not O(create). *)

(** {2 Kernel API} — no bounds checks; see {!Sparse_recovery.update_folded}. *)

val level_of : t -> folded:int -> int
(** The sampling level of a pre-folded key (already capped to the sketch's
    level count). Vertices sharing hash structure share levels, so container
    sketches ({!Ds_agm.Agm_sketch}) evaluate this once per update. *)

val update_prepared : t -> index:int -> folded:int -> level:int -> delta:int -> unit
(** {!update} with fold and level hoisted; [folded = Kwise.fold_key index],
    [level = level_of t ~folded]. *)

val update_prepared_pair : t -> t -> index:int -> folded:int -> level:int -> delta:int -> unit
(** [+delta] into the first sampler and [-delta] into the second with one
    set of hash evaluations; both must be clones sharing hash structure
    (see {!Sparse_recovery.update_folded_pair}). *)

val update_folded : t -> index:int -> folded:int -> delta:int -> unit
(** {!update_prepared} computing the level itself. *)

val level_of_pows : t -> x:int -> x2:int -> x4:int -> int
(** {!level_of} with the folded key's square and fourth power supplied
    (see {!Sparse_recovery.update_pows}); the deepest-shared hoist for
    containers evaluating many samplers at one key. *)

val update_prepared_pows :
  t -> index:int -> x:int -> x2:int -> x4:int -> level:int -> delta:int -> unit
(** {!update_prepared} with precomputed key powers. *)

val update_prepared_pair_pows :
  t -> t -> index:int -> x:int -> x2:int -> x4:int -> level:int -> delta:int -> unit
(** {!update_prepared_pair} with precomputed key powers. *)

val sample : t -> (int * int) option
(** [Some (index, value)] for a non-zero coordinate chosen near-uniformly,
    or [None] when the vector is zero or sampling failed (detected). *)

val classify : t -> [ `Empty | `Sample of int * int | `Fail ]
(** Like {!sample} but separates the two [None] cases: [`Empty] certifies
    (whp) that the vector is zero, [`Fail] is a detected decoding failure
    (the support exists but no level isolated it). Boruvka loops need the
    distinction to tell "done" from "retry with a fresh copy". *)

val support_hint : t -> int
(** Rough support-size estimate from the level structure (factor O(1)). *)

val add : t -> t -> unit
val sub : t -> t -> unit
val copy : t -> t

val reset : t -> unit
(** Zero every counter in place — one fill of the underlying buffer. *)

val state_words : t -> int
(** Word count of the all-levels counter buffer: the reservation a
    container makes to {!clone_into} this sampler. *)

val clone_into : t -> words:Ds_util.Words.t -> off:int -> t
(** {!clone_zero} into a caller-provided (zeroed) buffer window at
    [off]: the embedded sampler aliases the caller's storage, so e.g.
    {!Ds_agm.Agm_sketch} holds its whole copies x vertices sampler grid
    in one allocation and merges it with one kernel call. *)

val compatible : t -> t -> bool
(** Same shape, hashes drawn from equal seeds — the merge precondition. *)

val space_in_words : t -> int

val write : t -> Ds_util.Wire.sink -> unit
val read_into : mode:Ds_util.Words.mode -> t -> Ds_util.Wire.source -> unit
(** Counter (de)serialisation; see {!Ds_sketch.One_sparse.write}. *)

module Linear : Linear_sketch.S with type t = t
