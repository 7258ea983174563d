(* Each vertex keeps its neighbours sorted ascending in an int array, the
   matching weights in an unboxed float array, and its degree; capacity
   beyond the degree is slack for later inserts. Lookups are binary
   searches, and every iteration visits neighbours in ascending order. *)
type t = { n : int; nbr : int array array; wt : float array array; deg : int array }

let create n =
  if n < 1 then invalid_arg "Weighted_graph.create: need at least one vertex";
  { n; nbr = Array.make n [||]; wt = Array.make n [||]; deg = Array.make n 0 }

let n t = t.n

let check_pair t u v =
  if u = v then invalid_arg "Weighted_graph: self-loop";
  if u < 0 || v < 0 || u >= t.n || v >= t.n then
    invalid_arg "Weighted_graph: vertex out of range"

(* The first slot of [u]'s neighbour list holding a vertex >= [v]. *)
let search t u v =
  let a = t.nbr.(u) in
  let lo = ref 0 and hi = ref t.deg.(u) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let slot t u v =
  let i = search t u v in
  if i < t.deg.(u) && t.nbr.(u).(i) = v then Some i else None

let weight t u v =
  check_pair t u v;
  Option.map (fun i -> t.wt.(u).(i)) (slot t u v)

let mem_edge t u v = weight t u v <> None

let insert t u v w =
  let d = t.deg.(u) in
  if d = Array.length t.nbr.(u) then begin
    let cap = max 4 (2 * d) in
    let nbr = Array.make cap 0 and wt = Array.make cap 0.0 in
    Array.blit t.nbr.(u) 0 nbr 0 d;
    Array.blit t.wt.(u) 0 wt 0 d;
    t.nbr.(u) <- nbr;
    t.wt.(u) <- wt
  end;
  let i = search t u v in
  let nbr = t.nbr.(u) and wt = t.wt.(u) in
  Array.blit nbr i nbr (i + 1) (d - i);
  Array.blit wt i wt (i + 1) (d - i);
  nbr.(i) <- v;
  wt.(i) <- w;
  t.deg.(u) <- d + 1

let delete t u i =
  let d = t.deg.(u) - 1 in
  Array.blit t.nbr.(u) (i + 1) t.nbr.(u) i (d - i);
  Array.blit t.wt.(u) (i + 1) t.wt.(u) i (d - i);
  t.deg.(u) <- d

let add_edge t u v w =
  check_pair t u v;
  if w <= 0.0 then invalid_arg "Weighted_graph.add_edge: weight must be positive";
  if mem_edge t u v then invalid_arg "Weighted_graph.add_edge: edge already present";
  insert t u v w;
  insert t v u w

let remove_edge t u v =
  check_pair t u v;
  match (slot t u v, slot t v u) with
  | Some i, Some j ->
      delete t u i;
      delete t v j
  | _ -> invalid_arg "Weighted_graph.remove_edge: edge absent"

let iter_neighbors t u f =
  let nbr = t.nbr.(u) and wt = t.wt.(u) in
  for i = 0 to t.deg.(u) - 1 do
    f nbr.(i) wt.(i)
  done

let iter_edges t f =
  for u = 0 to t.n - 1 do
    iter_neighbors t u (fun v w -> if u < v then f u v w)
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun u v w -> acc := (u, v, w) :: !acc);
  !acc

let num_edges t = Array.fold_left ( + ) 0 t.deg / 2
let degree t u = t.deg.(u)

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v, w) -> add_edge g u v w) es;
  g

let unweighted t =
  let g = Graph.create t.n in
  iter_edges t (fun u v _ -> Graph.add_edge g u v);
  g

let of_graph ?(weight = 1.0) g =
  let t = create (Graph.n g) in
  Graph.iter_edges g (fun u v -> add_edge t u v weight);
  t

let weight_range t =
  let lo = ref infinity and hi = ref neg_infinity in
  iter_edges t (fun _ _ w ->
      if w < !lo then lo := w;
      if w > !hi then hi := w);
  if !lo > !hi then (1.0, 1.0) else (!lo, !hi)

let total_weight t =
  let acc = ref 0.0 in
  iter_edges t (fun _ _ w -> acc := !acc +. w);
  !acc
