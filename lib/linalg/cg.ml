type result = { x : float array; iterations : int; residual : float }

let solve_shifted (e : Laplacian.edges) ~shift ~b ?(tol = 1e-9) ?(max_iter = 0) () =
  let n = e.Laplacian.n in
  if Array.length b <> n then invalid_arg "Cg.solve_shifted: size mismatch";
  if shift <= 0.0 then invalid_arg "Cg.solve_shifted: shift must be positive";
  let max_iter = if max_iter = 0 then 20 * n else max_iter in
  (* [L + shift I] is positive definite (no kernel, connected or not), so
     this is textbook CG: no ones-projection anywhere. *)
  let apply v =
    let lv = Laplacian.apply e v in
    for i = 0 to n - 1 do
      lv.(i) <- lv.(i) +. (shift *. v.(i))
    done;
    lv
  in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let p = Array.copy r in
  let rs = ref (Vec.dot r r) in
  let bnorm = max (sqrt !rs) 1e-30 in
  let iters = ref 0 in
  while sqrt !rs /. bnorm > tol && !iters < max_iter do
    incr iters;
    let kp = apply p in
    let alpha = !rs /. Vec.dot p kp in
    Vec.axpy alpha p x;
    Vec.axpy (-.alpha) kp r;
    let rs' = Vec.dot r r in
    let beta = rs' /. !rs in
    for i = 0 to n - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done;
    rs := rs'
  done;
  let residual = Vec.norm (Vec.sub (apply x) b) /. bnorm in
  { x; iterations = !iters; residual }

let solve g ~b ?(tol = 1e-9) ?(max_iter = 0) () =
  let n = Ds_graph.Weighted_graph.n g in
  if Array.length b <> n then invalid_arg "Cg.solve: size mismatch";
  let max_iter = if max_iter = 0 then 20 * n else max_iter in
  let e = Laplacian.edges g in
  let b = Array.copy b in
  Vec.project_off_ones b;
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let p = Array.copy r in
  let rs = ref (Vec.dot r r) in
  let bnorm = max (sqrt !rs) 1e-30 in
  let iters = ref 0 in
  while sqrt !rs /. bnorm > tol && !iters < max_iter do
    incr iters;
    let lp = Laplacian.apply e p in
    let denom = Vec.dot p lp in
    if denom <= 0.0 then
      (* Hit the kernel (disconnected graph or numerical trouble): stop. *)
      rs := 0.0
    else begin
      let alpha = !rs /. denom in
      Vec.axpy alpha p x;
      Vec.axpy (-.alpha) lp r;
      (* CG drifts into the kernel over many iterations; re-project. *)
      Vec.project_off_ones r;
      let rs' = Vec.dot r r in
      let beta = rs' /. !rs in
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. p.(i))
      done;
      rs := rs'
    end
  done;
  Vec.project_off_ones x;
  let residual = Vec.norm (Vec.sub (Laplacian.apply e x) b) /. bnorm in
  { x; iterations = !iters; residual }
