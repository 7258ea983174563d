open Ds_graph

let dense g =
  let n = Weighted_graph.n g in
  let m = Matrix.create n in
  Weighted_graph.iter_edges g (fun u v w ->
      Matrix.add_to m u v (-.w);
      Matrix.add_to m v u (-.w);
      Matrix.add_to m u u w;
      Matrix.add_to m v v w);
  m

type edges = { n : int; eu : int array; ev : int array; ew : float array }

let edges g =
  let m = Weighted_graph.num_edges g in
  let eu = Array.make m 0 and ev = Array.make m 0 and ew = Array.make m 0.0 in
  let k = ref 0 in
  Weighted_graph.iter_edges g (fun u v w ->
      eu.(!k) <- u;
      ev.(!k) <- v;
      ew.(!k) <- w;
      incr k);
  { n = Weighted_graph.n g; eu; ev; ew }

let apply e x =
  if Array.length x <> e.n then invalid_arg "Laplacian.apply: size mismatch";
  let y = Array.make e.n 0.0 in
  for k = 0 to Array.length e.eu - 1 do
    let u = e.eu.(k) and v = e.ev.(k) and w = e.ew.(k) in
    let d = x.(u) -. x.(v) in
    y.(u) <- y.(u) +. (w *. d);
    y.(v) <- y.(v) -. (w *. d)
  done;
  y

let quadratic_form g x =
  let acc = ref 0.0 in
  Weighted_graph.iter_edges g (fun u v w ->
      let d = x.(u) -. x.(v) in
      acc := !acc +. (w *. d *. d));
  !acc

let cut_weight g members =
  let n = Weighted_graph.n g in
  let inside = Array.make n false in
  List.iter (fun i -> inside.(i) <- true) members;
  let acc = ref 0.0 in
  Weighted_graph.iter_edges g (fun u v w -> if inside.(u) <> inside.(v) then acc := !acc +. w);
  !acc

let degree_weighted g u =
  let acc = ref 0.0 in
  Weighted_graph.iter_neighbors g u (fun _ w -> acc := !acc +. w);
  !acc
