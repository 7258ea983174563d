(** Graph Laplacians (Section 2): [L(i,j) = -w(i,j)], [L(i,i) = sum_j w_ij].
    Provides both a dense materialisation (verification) and matrix-free
    application/quadratic forms (cheap enough for CG). *)

val dense : Ds_graph.Weighted_graph.t -> Matrix.t

type edges = private { n : int; eu : int array; ev : int array; ew : float array }
(** A graph's edge list as flat arrays, in {!Ds_graph.Weighted_graph.iter_edges}
    order: edge [k] is [{eu.(k), ev.(k)}] with weight [ew.(k)]. The form an
    iterative solver multiplies by many times. *)

val edges : Ds_graph.Weighted_graph.t -> edges

val apply : edges -> float array -> float array
(** [L x] in O(m) without materialising [L]. Sums in edge order, so the
    result is bit-identical for every graph flattened to the same arrays.
    @raise Invalid_argument when [x]'s length differs from the vertex
    count. *)

val quadratic_form : Ds_graph.Weighted_graph.t -> float array -> float
(** [x^T L x = sum_e w_e (x_u - x_v)^2], computed edge-wise (exact,
    numerically stable, O(m)). *)

val cut_weight : Ds_graph.Weighted_graph.t -> int list -> float
(** Total weight crossing the cut [(S, V \ S)]; equals the quadratic form of
    the indicator vector of [S]. *)

val degree_weighted : Ds_graph.Weighted_graph.t -> int -> float
