open Ds_util
open Ds_sketch

type params = { banks : int; levels : int; rows : int; cols : int; hash_degree : int }

let default_params = { banks = 2; levels = 12; rows = 5; cols = 1024; hash_degree = 6 }

(* One contiguous off-heap buffer holds every counter of every bank and
   level, laid out bank-major:

     slot(b, l) = ((b * levels) + l) * rows * cols

   Each slot is a CountSketch table over the same edge-index space; the
   per-level Count_sketch values alias the buffer through O(1) views, so
   merge/subtract/zero/ship are single whole-buffer calls and the LSK1 body
   is one window pass. *)
type t = {
  dim : int;
  prm : params;
  level_hash : Kwise.t array; (* one nested-sampling hash per bank *)
  sketches : Count_sketch.t array array; (* [bank].[level], views into words *)
  words : Words.t;
}

let[@inline] slot_words prm = prm.rows * prm.cols

let attach rng ~dim ~prm words =
  let cs_params =
    { Count_sketch.rows = prm.rows; cols = prm.cols; hash_degree = prm.hash_degree }
  in
  Array.init prm.banks (fun b ->
      let brng = Prng.split_named rng (Printf.sprintf "bank%d" b) in
      Array.init prm.levels (fun l ->
          let pos = ((b * prm.levels) + l) * slot_words prm in
          Count_sketch.create_over
            (Prng.split_named brng (Printf.sprintf "level%d" l))
            ~dim ~params:cs_params
            ~table:(Words.view words ~pos ~len:(slot_words prm))))

let create rng ~dim ~params:prm =
  if prm.banks < 1 || prm.levels < 1 || prm.rows < 1 || prm.cols < 1 then
    invalid_arg "Level_bank.create: bad params";
  if dim < 1 then invalid_arg "Level_bank.create: bad dimension";
  let words = Words.create (prm.banks * prm.levels * slot_words prm) in
  {
    dim;
    prm;
    level_hash =
      Array.init prm.banks (fun b ->
          Kwise.create
            (Prng.split_named rng (Printf.sprintf "sample%d" b))
            ~k:prm.hash_degree);
    sketches = attach rng ~dim ~prm words;
    words;
  }

let params t = t.prm
let dim t = t.dim

let sample_level t ~bank ~index = min (t.prm.levels - 1) (Kwise.level t.level_hash.(bank) index)

let update t ~index ~delta =
  if index < 0 || index >= t.dim then invalid_arg "Level_bank.update: index out of range";
  (* Each bank routes the update into exactly one level: the edge's
     geometric class [g(e)] (capped into the last level). The paper's nested
     sample [E_l] is the union of classes >= l; decode re-derives [g(e)]
     from the seed per candidate, so storing the partition instead of the
     nested prefixes keeps the same sampling semantics while halving the
     collision mass at every level. *)
  for b = 0 to t.prm.banks - 1 do
    Count_sketch.update t.sketches.(b).(sample_level t ~bank:b ~index) ~index ~delta
  done

let query t ~bank ~level ~index = Count_sketch.estimate t.sketches.(bank).(level) index

let check_compatible t s =
  if t.dim <> s.dim || t.prm <> s.prm then invalid_arg "Level_bank: incompatible banks"

let add t s =
  check_compatible t s;
  Words.add t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub t.words s.words

let reset t = Words.fill t.words 0

let clone_zero t =
  let words = Words.create (Words.length t.words) in
  {
    t with
    words;
    sketches =
      Array.mapi
        (fun b row ->
          Array.mapi
            (fun l cs ->
              let pos = ((b * t.prm.levels) + l) * slot_words t.prm in
              Count_sketch.rebind cs ~table:(Words.view words ~pos ~len:(slot_words t.prm)))
            row)
        t.sketches;
  }

let space_in_words t =
  (* Count_sketch.space_in_words includes each table, but every table is a
     view into the shared buffer — count the buffer once and keep only the
     per-sketch hash-coefficient words. *)
  Words.length t.words
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 t.level_hash
  + Array.fold_left
      (fun a row ->
        Array.fold_left
          (fun a cs -> a + (Count_sketch.space_in_words cs - slot_words t.prm))
          a row)
      0 t.sketches

let write_body t sink =
  Wire.write_tag sink "sp1b";
  Wire.write_int sink t.dim;
  (* One window per (bank, level) slot: the body is a concatenation of
     CountSketch tables in layout order, so a reader can locate any level
     without decoding the rest. *)
  for b = 0 to t.prm.banks - 1 do
    for l = 0 to t.prm.levels - 1 do
      Words.write_wire_array sink t.words
        ~pos:(((b * t.prm.levels) + l) * slot_words t.prm)
        ~len:(slot_words t.prm)
    done
  done

let read_body ~mode t src =
  Wire.expect_tag src "sp1b";
  if Wire.read_int src <> t.dim then failwith "Level_bank.read_body: dimension mismatch";
  for b = 0 to t.prm.banks - 1 do
    for l = 0 to t.prm.levels - 1 do
      Words.read_wire_array ~what:"Level_bank.read_body" ~mode src t.words
        ~pos:(((b * t.prm.levels) + l) * slot_words t.prm)
        ~len:(slot_words t.prm)
    done
  done

module Linear = struct
  type nonrec t = t

  let family = "sparsify1p"
  let dim = dim
  let shape t = [| t.dim; t.prm.banks; t.prm.levels; t.prm.rows; t.prm.cols; t.prm.hash_degree |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write_body
  let read_body = read_body
end
