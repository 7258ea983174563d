open Ds_graph

let effective g u v =
  if u = v then invalid_arg "Resistance.effective: self-pair";
  let n = Weighted_graph.n g in
  if not (Components.same_component (Weighted_graph.unweighted g) u v) then infinity
  else begin
    let b = Array.make n 0.0 in
    b.(u) <- 1.0;
    b.(v) <- -1.0;
    let { Cg.x; _ } = Cg.solve g ~b ~tol:1e-10 () in
    x.(u) -. x.(v)
  end

let all_edges g =
  List.map (fun (u, v, w) -> (u, v, w, effective g u v)) (Weighted_graph.edges g)

let total g =
  List.fold_left (fun acc (_, _, w, r) -> acc +. (w *. r)) 0.0 (all_edges g)

let jl_estimator rng g ~shift ~reps ?(tol = 1e-8) () =
  if reps < 1 then invalid_arg "Resistance.jl_estimator: reps must be positive";
  let n = Weighted_graph.n g in
  (* R_uv w.r.t. K = L + shift I is ||M K^-1 (e_u - e_v)||^2 for the
     factorization K = M^T M, M = [W^{1/2} B; sqrt(shift) I]. Project M onto
     [reps] Gaussian directions: one edge-indexed Gaussian per probe for the
     incidence block, one vertex-indexed Gaussian for the sqrt(shift) I
     block, then a single shifted-CG solve per probe. After the solves,
     every pair costs O(reps) — which is what lets the sparsifier's decode
     loop scan all candidate pairs. The graph is flattened once and every
     probe's Gaussians and solve walk the same edge order. *)
  let e = Laplacian.edges g in
  let z =
    Array.init reps (fun _ ->
        let y = Array.make n 0.0 in
        for k = 0 to Array.length e.Laplacian.eu - 1 do
          let u = e.Laplacian.eu.(k) and v = e.Laplacian.ev.(k) in
          let g_e = Ds_util.Prng.gaussian rng *. sqrt e.Laplacian.ew.(k) in
          y.(u) <- y.(u) +. g_e;
          y.(v) <- y.(v) -. g_e
        done;
        let sq = sqrt shift in
        for i = 0 to n - 1 do
          y.(i) <- y.(i) +. (sq *. Ds_util.Prng.gaussian rng)
        done;
        (Cg.solve_shifted e ~shift ~b:y ~tol ()).Cg.x)
  in
  let inv_reps = 1.0 /. float_of_int reps in
  fun u v ->
    let acc = ref 0.0 in
    for j = 0 to reps - 1 do
      let d = z.(j).(u) -. z.(j).(v) in
      acc := !acc +. (d *. d)
    done;
    !acc *. inv_reps
