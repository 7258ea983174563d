(** Conjugate gradients for Laplacian systems. Solves [L x = b] on the
    subspace orthogonal to the all-ones vector (the solvable subspace of a
    connected graph's Laplacian); this is how effective resistances are
    computed without densifying. *)

type result = { x : float array; iterations : int; residual : float }

val solve :
  Ds_graph.Weighted_graph.t -> b:float array -> ?tol:float -> ?max_iter:int -> unit -> result
(** [b] is projected off the ones vector first. @raise Invalid_argument when
    [b]'s length differs from the vertex count. The solution is the
    minimum-norm one (mean zero). *)

val solve_shifted :
  Laplacian.edges ->
  shift:float ->
  b:float array ->
  ?tol:float ->
  ?max_iter:int ->
  unit ->
  result
(** Solve the regularized system [(L + shift * I) x = b], [shift > 0]. The
    matrix is positive definite for every graph — including disconnected
    ones — so no kernel projection is involved; this is the solver behind
    the single-pass sparsifier's chain of regularized Laplacians [K(gamma) =
    L + gamma I] (KLMMS, arXiv 1407.1289). The graph comes flattened
    ({!Laplacian.edges}) so a caller solving several systems on one graph
    flattens it once. @raise Invalid_argument on a size mismatch or
    non-positive shift. *)
