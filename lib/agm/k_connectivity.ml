open Ds_graph

type t = { n : int; k : int; sketches : Agm_sketch.t array }

let create rng ~n ~k ~params =
  if k < 1 then invalid_arg "K_connectivity.create: k must be >= 1";
  let sketches =
    Array.init k (fun i ->
        Agm_sketch.create (Ds_util.Prng.split_named rng (Printf.sprintf "kc%d" i)) ~n ~params)
  in
  { n; k; sketches }

let update t ~u ~v ~delta =
  Array.iter (fun s -> Agm_sketch.update s ~u ~v ~delta) t.sketches

let clone_zero t = { t with sketches = Array.map Agm_sketch.clone_zero t.sketches }

let combine op t s =
  if t.n <> s.n || t.k <> s.k then invalid_arg "K_connectivity: incompatible";
  Array.iteri (fun i sk -> op sk s.sketches.(i)) t.sketches

let add t s = combine Agm_sketch.add t s
let sub t s = combine Agm_sketch.sub t s
let reset t = Array.iter Agm_sketch.reset t.sketches

let certificate t =
  let acc = Graph.create t.n in
  (* Peel forests: each round's forest is removed from all later sketches so
     the next forest finds k-edge-connectivity witnesses beyond it. *)
  for i = 0 to t.k - 1 do
    let forest = Agm_sketch.spanning_forest t.sketches.(i) in
    let layer = Graph.create t.n in
    List.iter
      (fun (u, v) ->
        if not (Graph.mem_edge layer u v) then begin
          Graph.add_edge layer u v;
          if not (Graph.mem_edge acc u v) then Graph.add_edge acc u v
        end)
      forest;
    for j = i + 1 to t.k - 1 do
      Agm_sketch.subtract_graph t.sketches.(j) layer
    done
  done;
  acc

let is_k_connected t = Min_cut.edge_connectivity (certificate t) >= t.k

let space_in_words t =
  Array.fold_left (fun acc s -> acc + Agm_sketch.space_in_words s) 0 t.sketches

module Linear = struct
  type nonrec t = t

  let family = "k_connectivity"
  let dim t = Agm_sketch.Linear.dim t.sketches.(0)

  let shape t = Array.append [| t.k |] (Agm_sketch.Linear.shape t.sketches.(0))

  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let reset = reset

  let update t ~index ~delta =
    Array.iter (fun s -> Agm_sketch.Linear.update s ~index ~delta) t.sketches

  let space_in_words = space_in_words

  let write_body t sink =
    Ds_util.Wire.write_tag sink "kc";
    Array.iter (fun s -> Agm_sketch.write s sink) t.sketches

  let read_body ~mode t src =
    Ds_util.Wire.expect_tag src "kc";
    Array.iter (fun s -> Agm_sketch.read_into ~mode s src) t.sketches
end
