open Ds_util

type params = { sparsity : int; reps : int; hash_degree : int }

type rep = {
  level_hash : Kwise.t;
  sketches : Sparse_recovery.t array; (* one per level *)
}

(* All reps x levels cell grids live back to back in one off-heap buffer
   (rep [i] level [j] at word offset [(i*levels + j) * level_words]);
   the rep sketches are views into it, and merge is one kernel pass. *)
type t = { dim : int; prm : params; levels : int; words : Words.t; instances : rep array }

let default_params = { sparsity = 8; reps = 3; hash_degree = 6 }

let levels_for dim =
  let rec go l acc = if acc >= dim then l + 1 else go (l + 1) (acc * 2) in
  go 0 1

let embed_instances ~levels instances words =
  let lw = Sparse_recovery.state_words instances.(0).sketches.(0) in
  Array.mapi
    (fun i r ->
      {
        r with
        sketches =
          Array.mapi
            (fun j sk -> Sparse_recovery.clone_into sk ~words ~off:(((i * levels) + j) * lw))
            r.sketches;
      })
    instances

let create rng ~dim ~params:prm =
  if prm.reps < 1 then invalid_arg "F0.create: reps < 1";
  let levels = levels_for dim in
  let sr_params =
    { Sparse_recovery.sparsity = prm.sparsity; rows = 3; hash_degree = prm.hash_degree }
  in
  let make_rep i =
    let r = Prng.split_named rng (Printf.sprintf "f0rep%d" i) in
    let level_hash = Kwise.create (Prng.split_named r "levels") ~k:prm.hash_degree in
    let sketches =
      Array.init levels (fun j ->
          Sparse_recovery.create
            (Prng.split_named r (Printf.sprintf "lvl%d" j))
            ~dim ~params:sr_params)
    in
    { level_hash; sketches }
  in
  let instances = Array.init prm.reps make_rep in
  let words =
    Words.create (prm.reps * levels * Sparse_recovery.state_words instances.(0).sketches.(0))
  in
  { dim; prm; levels; words; instances = embed_instances ~levels instances words }

let update t ~index ~delta =
  if index < 0 || index >= t.dim then invalid_arg "F0.update: index out of range";
  let folded = Kwise.fold_key index in
  Array.iter
    (fun rep ->
      let lvl = min (Kwise.level_folded rep.level_hash folded) (t.levels - 1) in
      for j = 0 to lvl do
        Sparse_recovery.update_folded rep.sketches.(j) ~index ~folded ~delta
      done)
    t.instances

let estimate_rep t rep =
  let rec go j =
    if j >= t.levels then t.dim (* nothing decoded: support is essentially full *)
    else
      match Sparse_recovery.decode rep.sketches.(j) with
      | Some assoc -> List.length assoc * (1 lsl j)
      | None -> go (j + 1)
  in
  go 0

let estimate t =
  let es = Array.map (fun r -> float_of_int (estimate_rep t r)) t.instances in
  int_of_float (Stats.median es)

let check_compatible t s =
  if
    t.dim <> s.dim || t.prm <> s.prm
    || not
         (Array.for_all2
            (fun a b -> Array.for_all2 Sparse_recovery.compatible a.sketches b.sketches)
            t.instances s.instances)
  then invalid_arg "F0: incompatible sketches"

let add t s =
  check_compatible t s;
  Words.add_tri t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub_tri t.words s.words

let copy t =
  let words = Words.copy t.words in
  { t with words; instances = embed_instances ~levels:t.levels t.instances words }

let clone_zero t =
  let words = Words.create (Words.length t.words) in
  { t with words; instances = embed_instances ~levels:t.levels t.instances words }

let reset t = Words.fill t.words 0

let space_in_words t =
  Array.fold_left
    (fun acc r ->
      acc + Kwise.space_in_words r.level_hash
      + Array.fold_left (fun a sk -> a + Sparse_recovery.space_in_words sk) 0 r.sketches)
    0 t.instances

let write t sink =
  Wire.write_tag sink "f0";
  Wire.write_int sink t.levels;
  Array.iter (fun r -> Array.iter (fun sk -> Sparse_recovery.write sk sink) r.sketches) t.instances

let read_into ~mode t src =
  Wire.expect_tag src "f0";
  if Wire.read_int src <> t.levels then failwith "F0.read_into: level mismatch";
  Array.iter
    (fun r -> Array.iter (fun sk -> Sparse_recovery.read_into ~mode sk src) r.sketches)
    t.instances

module Linear = struct
  type nonrec t = t

  let family = "f0"
  let dim t = t.dim
  let shape t = [| t.dim; t.prm.sparsity; t.prm.reps; t.prm.hash_degree; t.levels |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
