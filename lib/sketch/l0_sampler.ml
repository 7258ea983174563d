open Ds_util

type params = { sparsity : int; rows : int; hash_degree : int }

(* One off-heap buffer holds every level's cell grid back to back (level
   [j] at word offset [j * level_words]); the [sketches] array views it.
   Merging an L0 sampler is one triple-kernel pass over the buffer. *)
type t = {
  dim : int;
  prm : params;
  levels : int;
  level_hash : Kwise.t;
  tie_break : Kwise.t;
  words : Words.t;
  sketches : Sparse_recovery.t array;
}

let default_params = { sparsity = 2; rows = 3; hash_degree = 6 }
let state_words t = Words.length t.words

(* Re-home the level sketches into [words] (every level has the same
   grid shape, hence the same word footprint). *)
let embed_sketches sketches words =
  let lw = Sparse_recovery.state_words sketches.(0) in
  Array.mapi (fun j sk -> Sparse_recovery.clone_into sk ~words ~off:(j * lw)) sketches

let create rng ~dim ~params:prm =
  let levels = F0.levels_for dim in
  let sr_params =
    { Sparse_recovery.sparsity = prm.sparsity; rows = prm.rows; hash_degree = prm.hash_degree }
  in
  let sketches =
    Array.init levels (fun j ->
        Sparse_recovery.create
          (Prng.split_named rng (Printf.sprintf "lvl%d" j))
          ~dim ~params:sr_params)
  in
  let words = Words.create (levels * Sparse_recovery.state_words sketches.(0)) in
  {
    dim;
    prm;
    levels;
    level_hash = Kwise.create (Prng.split_named rng "levels") ~k:prm.hash_degree;
    tie_break = Kwise.create (Prng.split_named rng "tiebreak") ~k:prm.hash_degree;
    words;
    sketches = embed_sketches sketches words;
  }

let level_of t ~folded = min (Kwise.level_folded t.level_hash folded) (t.levels - 1)

let[@inline] level_of_pows t ~x ~x2 ~x4 =
  min (Kwise.level_pows t.level_hash ~x ~x2 ~x4) (t.levels - 1)

let[@inline] update_prepared_pows t ~index ~x ~x2 ~x4 ~level ~delta =
  for j = 0 to level do
    Sparse_recovery.update_pows (Array.unsafe_get t.sketches j) ~index ~x ~x2 ~x4 ~delta
  done

let update_prepared t ~index ~folded ~level ~delta =
  let x2 = Field.mul folded folded in
  let x4 = Field.mul x2 x2 in
  update_prepared_pows t ~index ~x:folded ~x2 ~x4 ~level ~delta

(* [t] gets +delta and [s] gets -delta of the same coordinate; both must be
   clones sharing hash structure (see Sparse_recovery.update_pows_pair). *)
let[@inline] update_prepared_pair_pows t s ~index ~x ~x2 ~x4 ~level ~delta =
  for j = 0 to level do
    Sparse_recovery.update_pows_pair
      (Array.unsafe_get t.sketches j)
      (Array.unsafe_get s.sketches j)
      ~index ~x ~x2 ~x4 ~delta
  done

let update_prepared_pair t s ~index ~folded ~level ~delta =
  let x2 = Field.mul folded folded in
  let x4 = Field.mul x2 x2 in
  update_prepared_pair_pows t s ~index ~x:folded ~x2 ~x4 ~level ~delta

let update_folded t ~index ~folded ~delta =
  let x2 = Field.mul folded folded in
  let x4 = Field.mul x2 x2 in
  update_prepared_pows t ~index ~x:folded ~x2 ~x4
    ~level:(level_of_pows t ~x:folded ~x2 ~x4) ~delta

let update t ~index ~delta =
  if index < 0 || index >= t.dim then invalid_arg "L0_sampler.update: index out of range";
  update_folded t ~index ~folded:(Kwise.fold_key index) ~delta

let update_batch t updates =
  Array.iter (fun (index, delta) -> update t ~index ~delta) updates

let update_slice t updates ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length updates then
    invalid_arg "L0_sampler.update_slice: range out of bounds";
  for i = pos to pos + len - 1 do
    let index, delta = updates.(i) in
    update t ~index ~delta
  done

let pick_min_tiebreak t assoc =
  let best = ref None in
  List.iter
    (fun (i, w) ->
      let h = Kwise.eval t.tie_break i in
      match !best with
      | Some (h0, _, _) when h0 <= h -> ()
      | _ -> best := Some (h, i, w))
    assoc;
  match !best with None -> None | Some (_, i, w) -> Some (i, w)

(* Scan from the sparsest level down: levels are nested, so the first level
   (from the top) whose decoded support is non-empty holds a random small
   subsample of the full support. Reaching below level 0 means every level
   (including level 0 = the whole vector) decoded to the empty support, so
   the vector is zero whp. *)
let classify t =
  let rec go j =
    if j < 0 then `Empty
    else
      match Sparse_recovery.decode t.sketches.(j) with
      | Some [] -> go (j - 1)
      | Some assoc -> (
          match pick_min_tiebreak t assoc with
          | Some (i, w) -> `Sample (i, w)
          | None -> `Fail)
      | None -> (* support here already > sparsity: a denser level won't help *) `Fail
  in
  go (t.levels - 1)

let sample t =
  match classify t with `Sample (i, w) -> Some (i, w) | `Empty | `Fail -> None

let support_hint t =
  let rec go j =
    if j >= t.levels then t.dim
    else
      match Sparse_recovery.decode t.sketches.(j) with
      | Some assoc -> List.length assoc * (1 lsl j)
      | None -> go (j + 1)
  in
  go 0

let compatible t s =
  t.dim = s.dim && t.prm = s.prm
  && Array.for_all2 Sparse_recovery.compatible t.sketches s.sketches

let check_compatible t s =
  if not (compatible t s) then invalid_arg "L0_sampler: incompatible sketches"

(* One buffer-level triple merge covers every level's cell grid. *)
let add t s =
  check_compatible t s;
  Words.add_tri t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub_tri t.words s.words

let copy t =
  let words = Words.copy t.words in
  { t with words; sketches = embed_sketches t.sketches words }

let clone_zero t =
  let words = Words.create (Words.length t.words) in
  { t with words; sketches = embed_sketches t.sketches words }

let clone_into t ~words ~off =
  let w = Words.view words ~pos:off ~len:(Words.length t.words) in
  { t with words = w; sketches = embed_sketches t.sketches w }

let reset t = Words.fill t.words 0

let space_in_words t =
  Kwise.space_in_words t.level_hash
  + Kwise.space_in_words t.tie_break
  + Array.fold_left (fun a sk -> a + Sparse_recovery.space_in_words sk) 0 t.sketches

let write t sink =
  Wire.write_tag sink "l0";
  Wire.write_int sink t.levels;
  Array.iter (fun sk -> Sparse_recovery.write sk sink) t.sketches

let read_into ~mode t src =
  Wire.expect_tag src "l0";
  if Wire.read_int src <> t.levels then failwith "L0_sampler.read_into: level mismatch";
  Array.iter (fun sk -> Sparse_recovery.read_into ~mode sk src) t.sketches

module Linear = struct
  type nonrec t = t

  let family = "l0_sampler"
  let dim t = t.dim
  let shape t = [| t.dim; t.prm.sparsity; t.prm.rows; t.prm.hash_degree; t.levels |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
