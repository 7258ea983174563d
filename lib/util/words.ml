(* Flat off-heap word buffers: the storage substrate for every linear
   sketch family.

   A [Words.t] is a contiguous C-layout Bigarray of machine words living
   outside the OCaml heap: the GC never scans it, domains can blit it
   without write barriers, and a serialized checkpoint of it is an
   mmap-friendly flat image.  Sketch state is a small linear object of
   O(k n^(1+1/k) log n) words (Thm 1); keeping it in one of these makes
   clone = one zeroed allocation, merge = one tight loop, and ship =
   one pass over one buffer.

   The merge loops come in two flavours matching the two counter
   algebras in the library:

   - [add]/[sub]: plain machine-integer addition on every word
     (Count_sketch tables, AMS F2 counters, Packed_l0 / Sketch_table
     raw-accumulated fingerprints).
   - [add_tri]/[sub_tri]: One_sparse triples (c0, c1, c2) where the
     third word of every triple is a Mersenne-field element kept
     reduced in [0, 2^31-1) — the whole Sparse_recovery / L0_sampler /
     AGM tower is a flat array of such triples.

   Both are backed by C stubs (util_words_stubs.c); a pure-OCaml
   fallback ships for platforms where the stubs cannot build and is
   selected by setting DS_WORDS_KERNEL=ocaml in the environment before
   the program starts (the CI runs the whole suite under both, and the
   golden-fixture test pins that the two produce identical LSK1
   bytes). *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* ------------------------------------------------------------------ *)
(* Kernel selection                                                    *)
(* ------------------------------------------------------------------ *)

external c_add : t -> t -> int -> unit = "ds_words_add" [@@noalloc]
external c_sub : t -> t -> int -> unit = "ds_words_sub" [@@noalloc]
external c_add_tri : t -> t -> int -> unit = "ds_words_add_tri" [@@noalloc]
external c_sub_tri : t -> t -> int -> unit = "ds_words_sub_tri" [@@noalloc]

let use_c =
  match Sys.getenv_opt "DS_WORDS_KERNEL" with
  | Some s when String.lowercase_ascii s = "ocaml" -> false
  | _ -> true

let kernel = if use_c then "c" else "ocaml"

(* ------------------------------------------------------------------ *)
(* Construction and element access                                     *)
(* ------------------------------------------------------------------ *)

let create len =
  if len < 0 then invalid_arg "Words.create: negative length";
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill w 0;
  w

let length (t : t) = Bigarray.Array1.dim t
let get (t : t) i : int = Bigarray.Array1.get t i
let set (t : t) i (v : int) = Bigarray.Array1.set t i v
let[@inline] unsafe_get (t : t) i : int = Bigarray.Array1.unsafe_get t i
let[@inline] unsafe_set (t : t) i (v : int) = Bigarray.Array1.unsafe_set t i v

let fill (t : t) v = Bigarray.Array1.fill t v

let fill_range (t : t) ~pos ~len v =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Words.fill_range: range out of bounds";
  for i = pos to pos + len - 1 do
    unsafe_set t i v
  done

(* A view aliases the underlying storage: writes through the view are
   writes to the parent. This is how container sketches give each cell
   an addressable window of one shared allocation. *)
let view (t : t) ~pos ~len : t = Bigarray.Array1.sub t pos len

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || dst_pos < 0 || src_pos + len > length src
     || dst_pos + len > length dst
  then invalid_arg "Words.blit: range out of bounds";
  Bigarray.Array1.blit (view src ~pos:src_pos ~len) (view dst ~pos:dst_pos ~len)

let copy (t : t) =
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (length t) in
  Bigarray.Array1.blit t w;
  w

let of_array a =
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> unsafe_set w i v) a;
  w

let to_array (t : t) = Array.init (length t) (fun i -> unsafe_get t i)

let sub_array (t : t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Words.sub_array: range out of bounds";
  Array.init len (fun i -> unsafe_get t (pos + i))

(* ------------------------------------------------------------------ *)
(* Merge kernels                                                       *)
(* ------------------------------------------------------------------ *)

let p = Field.p

let check2 name t s =
  if length t <> length s then
    invalid_arg (Printf.sprintf "Words.%s: length mismatch (%d vs %d)" name (length t) (length s))

let ocaml_add (t : t) (s : t) len =
  for i = 0 to len - 1 do
    unsafe_set t i (unsafe_get t i + unsafe_get s i)
  done

let ocaml_sub (t : t) (s : t) len =
  for i = 0 to len - 1 do
    unsafe_set t i (unsafe_get t i - unsafe_get s i)
  done

(* Triples: words 0 and 1 of each triple are exact integers, word 2 is a
   Mersenne-field residue kept reduced — exactly One_sparse.add/sub, so
   a buffer-level merge is bit-identical to the per-cell loops it
   replaces. *)
let ocaml_add_tri (t : t) (s : t) len =
  let i = ref 0 in
  while !i + 2 < len do
    let o = !i in
    unsafe_set t o (unsafe_get t o + unsafe_get s o);
    unsafe_set t (o + 1) (unsafe_get t (o + 1) + unsafe_get s (o + 1));
    let v = unsafe_get t (o + 2) + unsafe_get s (o + 2) in
    unsafe_set t (o + 2) (if v >= p then v - p else v);
    i := o + 3
  done

let ocaml_sub_tri (t : t) (s : t) len =
  let i = ref 0 in
  while !i + 2 < len do
    let o = !i in
    unsafe_set t o (unsafe_get t o - unsafe_get s o);
    unsafe_set t (o + 1) (unsafe_get t (o + 1) - unsafe_get s (o + 1));
    let v = unsafe_get t (o + 2) - unsafe_get s (o + 2) in
    unsafe_set t (o + 2) (if v < 0 then v + p else v);
    i := o + 3
  done

let add t s =
  check2 "add" t s;
  if use_c then c_add t s (length t) else ocaml_add t s (length t)

let sub t s =
  check2 "sub" t s;
  if use_c then c_sub t s (length t) else ocaml_sub t s (length t)

let add_tri t s =
  check2 "add_tri" t s;
  if length t mod 3 <> 0 then invalid_arg "Words.add_tri: length not a multiple of 3";
  if use_c then c_add_tri t s (length t) else ocaml_add_tri t s (length t)

let sub_tri t s =
  check2 "sub_tri" t s;
  if length t mod 3 <> 0 then invalid_arg "Words.sub_tri: length not a multiple of 3";
  if use_c then c_sub_tri t s (length t) else ocaml_sub_tri t s (length t)

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

(* Byte-compatible with [Wire.write_array] / [Wire.read_array] over the
   same values: the LSK1 format predates the off-heap representation and
   is pinned by the golden fixtures, so serialization stays a varint
   stream — but now produced by one pass over one contiguous buffer. *)
let write_wire_array sink (t : t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Words.write_wire_array: range out of bounds";
  Wire.write_int sink len;
  for i = pos to pos + len - 1 do
    Wire.write_int sink (unsafe_get t i)
  done

(* How a reader stores what it parses. One parser per family serves
   deserialize ([Set]), in-place absorb ([Add]) and the validation pass that
   precedes it ([Check], which parses everything and writes nothing). *)
type mode = Set | Add | Check

let put mode (t : t) i v =
  match mode with
  | Set -> set t i v
  | Add -> set t i (get t i + v)
  | Check -> ()

(* The [c2] word of a One_sparse triple: [Add] is the field addition of
   [add_tri], so absorbing a body equals deserializing it and merging. *)
let put_residue mode (t : t) i v =
  match mode with
  | Set -> set t i v
  | Add ->
      let c = get t i + v in
      set t i (if c >= p then c - p else c)
  | Check -> ()

let zero_range mode t ~pos ~len =
  match mode with Set -> fill_range t ~pos ~len 0 | Add | Check -> ()

let read_wire_array ~what ~mode src (t : t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Words.read_wire_array: range out of bounds";
  let n = Wire.read_int src in
  if n <> len then failwith (what ^ ": length mismatch");
  if mode = Check then Wire.skip_ints src len
  else
    for i = pos to pos + len - 1 do
      put mode t i (Wire.read_int src)
    done

(* Raw little-endian image of the buffer: the mmap-friendly checkpoint
   form (not part of LSK1, which is pinned varint). *)
let to_bytes (t : t) =
  let len = length t in
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (unsafe_get t i))
  done;
  b

let of_bytes b =
  let nb = Bytes.length b in
  if nb mod 8 <> 0 then invalid_arg "Words.of_bytes: length not a multiple of 8";
  let len = nb / 8 in
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  for i = 0 to len - 1 do
    unsafe_set w i (Int64.to_int (Bytes.get_int64_le b (8 * i)))
  done;
  w

let bytes_per_word = 8
let off_heap_bytes (t : t) = bytes_per_word * length t
