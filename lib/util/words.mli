(** Flat off-heap word buffers — the storage substrate for linear-sketch
    state.

    A {!t} is a contiguous C-layout Bigarray of machine words (one
    64-bit slot per OCaml [int]) living outside the OCaml heap: the GC
    never scans or moves it, replicas are produced by one zeroed
    allocation or one blit, and merging two sketches is one tight loop
    over two buffers (a C stub by default, see {!kernel}).

    Containers embed sub-sketches by handing them {!view}s: a view
    aliases the parent's storage, so a whole tower of nested sketches
    (AGM -> L0 samplers -> sparse-recovery cells -> one-sparse triples)
    is physically a single allocation that can be shipped, zeroed or
    merged with one call. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val kernel : string
(** ["c"] when the foreign stubs drive {!add}/{!sub}/{!add_tri}/{!sub_tri},
    ["ocaml"] when the pure fallback does.  Selected once at program
    start: set [DS_WORDS_KERNEL=ocaml] to force the fallback (both paths
    are CI-gated to produce identical bytes). *)

val create : int -> t
(** Zero-filled buffer of the given word count. *)

val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

val unsafe_get : t -> int -> int
(** No bounds check — hot-path cell access for sketch kernels. *)

val unsafe_set : t -> int -> int -> unit

val fill : t -> int -> unit
val fill_range : t -> pos:int -> len:int -> int -> unit

val view : t -> pos:int -> len:int -> t
(** [view t ~pos ~len] aliases [t]'s storage: writes through the view are
    visible in [t] and vice versa.  O(1), no copy. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
val copy : t -> t
val of_array : int array -> t
val to_array : t -> int array
val sub_array : t -> pos:int -> len:int -> int array

val add : t -> t -> unit
(** [add t s] sets [t.(i) <- t.(i) + s.(i)] for every word (plain machine
    addition).  Lengths must match.  Aliasing ([add t t]) is well-defined
    and doubles every word. *)

val sub : t -> t -> unit
(** Elementwise [t.(i) <- t.(i) - s.(i)]. *)

val add_tri : t -> t -> unit
(** One_sparse-triple merge: for each aligned triple [(c0, c1, c2)],
    [c0] and [c1] add as plain integers while [c2] adds in the Mersenne
    field [F_{2^31-1}] (both sides reduced, result reduced) — exactly the
    per-cell [One_sparse.add] the buffer layout replaces.  Length must be
    a multiple of 3. *)

val sub_tri : t -> t -> unit
(** Triple-wise subtraction, [c2] in the Mersenne field. *)

val write_wire_array : Wire.sink -> t -> pos:int -> len:int -> unit
(** Length-prefixed zig-zag varints, byte-compatible with
    [Wire.write_array] over the same values (the pinned LSK1 body
    encoding), produced in one pass over the buffer. *)

(** How a body reader stores what it parses: [Set] overwrites (deserialize),
    [Add] adds into the existing counters (in-place absorb), [Check] parses
    and writes nothing (validation before an [Add]). Because the parse does
    not depend on the mode, a body that [Check] accepts is accepted by
    [Add] too. *)
type mode = Set | Add | Check

val put : mode -> t -> int -> int -> unit
(** [put mode t i v] stores a parsed plain word at [i]. *)

val put_residue : mode -> t -> int -> int -> unit
(** As {!put} for the Mersenne-field word of a One_sparse triple: [Add]
    adds modulo [2^31 - 1] exactly as {!add_tri} does. *)

val zero_range : mode -> t -> pos:int -> len:int -> unit
(** A run of zero words on the wire: [Set] zero-fills it, [Add] and
    [Check] leave it alone. *)

val read_wire_array : what:string -> mode:mode -> Wire.source -> t -> pos:int -> len:int -> unit
(** Inverse of {!write_wire_array} into an existing range, stored per
    [mode] (plain words).
    @raise Failure ("[what]: length mismatch") when the stored length
    differs from [len]. *)

val to_bytes : t -> bytes
(** Raw little-endian image — the mmap-friendly flat checkpoint form. *)

val of_bytes : bytes -> t

val bytes_per_word : int
(** 8: storage bytes per word slot. *)

val off_heap_bytes : t -> int
(** [bytes_per_word * length t]: what this buffer costs outside the heap. *)
