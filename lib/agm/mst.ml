open Ds_graph
open Ds_stream

type params = { gamma : float; w_min : float; w_max : float; sketch : Agm_sketch.params }

type t = {
  n : int;
  classes : Weight_class.t;
  sketches : Agm_sketch.t array; (* one per weight class *)
}

let create rng ~n ~params =
  let classes =
    Weight_class.create ~gamma:params.gamma ~w_min:params.w_min ~w_max:params.w_max
  in
  let sketches =
    Array.init (Weight_class.num_classes classes) (fun c ->
        Agm_sketch.create
          (Ds_util.Prng.split_named rng (Printf.sprintf "mst%d" c))
          ~n ~params:params.sketch)
  in
  { n; classes; sketches }

let update t ~u ~v ~weight ~delta =
  let c = Weight_class.class_of t.classes weight in
  Agm_sketch.update t.sketches.(c) ~u ~v ~delta

let clone_zero t = { t with sketches = Array.map Agm_sketch.clone_zero t.sketches }

let combine op t s =
  if t.n <> s.n || Array.length t.sketches <> Array.length s.sketches then
    invalid_arg "Mst: incompatible";
  Array.iteri (fun c sk -> op sk s.sketches.(c)) t.sketches

let add t s = combine Agm_sketch.add t s
let sub t s = combine Agm_sketch.sub t s
let reset t = Array.iter Agm_sketch.reset t.sketches

let extract t =
  let uf = Union_find.create t.n in
  let edges = ref [] in
  Array.iteri
    (fun c sketch ->
      if Union_find.num_classes uf > 1 then begin
        let labels = Array.init t.n (fun v -> Union_find.find uf v) in
        let forest = Agm_sketch.spanning_forest ~labels sketch in
        let w = Weight_class.representative t.classes c in
        List.iter
          (fun (a, b) -> if Union_find.union uf a b then edges := (a, b, w) :: !edges)
          forest
      end)
    t.sketches;
  !edges

let forest_weight edges = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 edges

let space_in_words t =
  Array.fold_left (fun acc s -> acc + Agm_sketch.space_in_words s) 0 t.sketches

module Linear = struct
  type nonrec t = t

  let family = "mst"

  (* The sketched vector stacks one edge-space block per weight class:
     index = class * Edge_index.dim n + edge_index. *)
  let dim t = Array.length t.sketches * Edge_index.dim t.n

  let shape t =
    Array.append
      [| t.n; Array.length t.sketches |]
      (Agm_sketch.Linear.shape t.sketches.(0))

  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let reset = reset

  let update t ~index ~delta =
    let edge_dim = Edge_index.dim t.n in
    let c = index / edge_dim in
    if c < 0 || c >= Array.length t.sketches then
      invalid_arg "Mst.Linear.update: index out of range";
    Agm_sketch.Linear.update t.sketches.(c) ~index:(index mod edge_dim) ~delta

  let space_in_words = space_in_words

  let write_body t sink =
    Ds_util.Wire.write_tag sink "mst";
    Array.iter (fun s -> Agm_sketch.write s sink) t.sketches

  let read_body ~mode t src =
    Ds_util.Wire.expect_tag src "mst";
    Array.iter (fun s -> Agm_sketch.read_into ~mode s src) t.sketches
end
