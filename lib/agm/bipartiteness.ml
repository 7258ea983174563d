open Ds_graph

type t = {
  n : int;
  base : Agm_sketch.t; (* sketch of G, for #components(G) *)
  cover : Agm_sketch.t; (* sketch of the double cover D(G) on 2n vertices *)
}

let create rng ~n ~params =
  let cover_params = { params with Agm_sketch.copies = params.Agm_sketch.copies + 1 } in
  {
    n;
    base = Agm_sketch.create (Ds_util.Prng.split_named rng "base") ~n ~params;
    cover =
      Agm_sketch.create (Ds_util.Prng.split_named rng "cover") ~n:(2 * n) ~params:cover_params;
  }

let update t ~u ~v ~delta =
  Agm_sketch.update t.base ~u ~v ~delta;
  (* u0 = u, v0 = v, u1 = u + n, v1 = v + n. *)
  Agm_sketch.update t.cover ~u ~v:(v + t.n) ~delta;
  Agm_sketch.update t.cover ~u:(u + t.n) ~v ~delta

let clone_zero t =
  { t with base = Agm_sketch.clone_zero t.base; cover = Agm_sketch.clone_zero t.cover }

let add t s =
  Agm_sketch.add t.base s.base;
  Agm_sketch.add t.cover s.cover

let sub t s =
  Agm_sketch.sub t.base s.base;
  Agm_sketch.sub t.cover s.cover

let reset t =
  Agm_sketch.reset t.base;
  Agm_sketch.reset t.cover

type verdict = { components : int; bipartite_components : int; is_bipartite : bool }

let components_of_forest ~n forest =
  let uf = Union_find.create n in
  List.iter (fun (u, v) -> ignore (Union_find.union uf u v)) forest;
  Union_find.num_classes uf

let test t =
  let c_g = components_of_forest ~n:t.n (Agm_sketch.spanning_forest t.base) in
  let c_d = components_of_forest ~n:(2 * t.n) (Agm_sketch.spanning_forest t.cover) in
  (* Isolated vertices are bipartite components and lift to two isolated
     cover vertices, so the identity holds for them too. *)
  let bipartite_components = c_d - c_g in
  { components = c_g; bipartite_components; is_bipartite = bipartite_components = c_g }

let space_in_words t = Agm_sketch.space_in_words t.base + Agm_sketch.space_in_words t.cover

module Linear = struct
  type nonrec t = t

  let family = "bipartiteness"
  let dim t = Agm_sketch.Linear.dim t.base

  let shape t =
    Array.concat
      [ [| t.n |]; Agm_sketch.Linear.shape t.base; Agm_sketch.Linear.shape t.cover ]

  let clone_zero = clone_zero
  let add = add
  let sub = sub

  (* Indices range over the base graph's edge space; the double-cover lift
     happens inside [update]. *)
  let update t ~index ~delta =
    let u, v = Ds_graph.Edge_index.decode ~n:t.n index in
    update t ~u ~v ~delta

  let reset = reset
  let space_in_words = space_in_words

  let write_body t sink =
    Ds_util.Wire.write_tag sink "bip";
    Agm_sketch.write t.base sink;
    Agm_sketch.write t.cover sink

  let read_body ~mode t src =
    Ds_util.Wire.expect_tag src "bip";
    Agm_sketch.read_into ~mode t.base src;
    Agm_sketch.read_into ~mode t.cover src
end
