open Ds_util

(* The three counters live in an off-heap Words buffer at [off]: a
   standalone sketch owns a 3-word buffer of its own, while container
   cells (Sparse_recovery rows) are views into one shared allocation —
   see [view].  The record itself is only immutable metadata (dimension,
   fingerprint base, the shared power ladder, and the window address). *)
type t = {
  dim : int;
  base : int; (* fingerprint base r, shared by compatible sketches *)
  pows : Field.Pow.table; (* cached ladder for r^(i+1), shared by clones *)
  words : Words.t;
  off : int;
}

type result = Zero | One of int * int | Many

let state_words = 3

let create rng ~dim =
  if dim <= 0 then invalid_arg "One_sparse.create: dim must be positive";
  let base = 2 + Prng.int rng (Field.p - 2) in
  let pows = Field.Pow.table ~base ~max_exp:dim in
  { dim; base; pows; words = Words.create state_words; off = 0 }

let clone_zero t = { t with words = Words.create state_words; off = 0 }
let view t ~words ~off = { t with words; off }

let[@inline] c0 t = Words.unsafe_get t.words t.off
let[@inline] c1 t = Words.unsafe_get t.words (t.off + 1)
let[@inline] c2 t = Words.unsafe_get t.words (t.off + 2)
let[@inline] set_c0 t v = Words.unsafe_set t.words t.off v
let[@inline] set_c1 t v = Words.unsafe_set t.words (t.off + 1) v
let[@inline] set_c2 t v = Words.unsafe_set t.words (t.off + 2) v

let[@inline] fingerprint_pow t index = Field.Pow.get t.pows (index + 1)

let[@inline] update_prepared t ~index ~delta ~term =
  let w = t.words and o = t.off in
  Words.unsafe_set w o (Words.unsafe_get w o + delta);
  Words.unsafe_set w (o + 1) (Words.unsafe_get w (o + 1) + (delta * index));
  Words.unsafe_set w (o + 2) (Field.add (Words.unsafe_get w (o + 2)) term)

let update t ~index ~delta =
  if index < 0 || index >= t.dim then invalid_arg "One_sparse.update: index out of range";
  update_prepared t ~index ~delta ~term:(Field.scale_int delta (fingerprint_pow t index))

let update_batch t updates =
  Array.iter (fun (index, delta) -> update t ~index ~delta) updates

let decode t =
  let c0 = c0 t and c1 = c1 t and c2 = c2 t in
  if c0 = 0 && c1 = 0 && c2 = 0 then Zero
  else if c0 = 0 then Many
  else if c1 mod c0 <> 0 then Many
  else begin
    let i = c1 / c0 in
    if i < 0 || i >= t.dim then Many
    else if Field.scale_int c0 (fingerprint_pow t i) = c2 then One (i, c0)
    else Many
  end

let is_zero t = c0 t = 0 && c1 t = 0 && c2 t = 0

let compatible t s = t.dim = s.dim && t.base = s.base

let check_compatible t s =
  if not (compatible t s) then invalid_arg "One_sparse: incompatible sketches"

let add t s =
  check_compatible t s;
  (* Merging shard replicas walks millions of cells of which only the
     touched few are non-zero; skipping the zero sources spares the
     destination's dirty cache traffic.  Adding zero is the identity on
     every counter (including [c2]: [Field.add x 0 = x]), so the
     fast path is bit-invisible.  (Container merges bypass this loop
     entirely: one [Words.add_tri] covers a whole cell grid.) *)
  if not (is_zero s) then begin
    set_c0 t (c0 t + c0 s);
    set_c1 t (c1 t + c1 s);
    set_c2 t (Field.add (c2 t) (c2 s))
  end

let sub t s =
  check_compatible t s;
  set_c0 t (c0 t - c0 s);
  set_c1 t (c1 t - c1 s);
  set_c2 t (Field.sub (c2 t) (c2 s))

let copy t =
  let words = Words.create state_words in
  Words.blit ~src:t.words ~src_pos:t.off ~dst:words ~dst_pos:0 ~len:state_words;
  { t with words; off = 0 }

let reset t =
  set_c0 t 0;
  set_c1 t 0;
  set_c2 t 0

let space_in_words _ = 4

let write t sink =
  Wire.write_tag sink "1sp";
  Wire.write_int sink t.dim;
  Wire.write_int sink (c0 t);
  Wire.write_int sink (c1 t);
  Wire.write_int sink (c2 t)

let read_into ~mode t src =
  Wire.expect_tag src "1sp";
  let dim = Wire.read_int src in
  if dim <> t.dim then failwith "One_sparse.read_into: dimension mismatch";
  Words.put mode t.words t.off (Wire.read_int src);
  Words.put mode t.words (t.off + 1) (Wire.read_int src);
  Words.put_residue mode t.words (t.off + 2) (Wire.read_int src)

module Linear = struct
  type nonrec t = t

  let family = "one_sparse"
  let dim t = t.dim
  let shape t = [| t.dim |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
