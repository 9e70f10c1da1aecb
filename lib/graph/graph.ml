type vertex = int
type edge = int

type t = {
  n : int;
  m : int;
  xadj : int array; (* n + 1 row offsets into the slot arrays *)
  adj_vertex : int array; (* 2m: neighbour stored at each slot *)
  adj_edge : int array; (* 2m: undirected edge id stored at each slot *)
  edge_u : int array; (* m *)
  edge_v : int array; (* m *)
  edge_pos : int array; (* 2m: slots of edge e at indices 2e and 2e+1 *)
}

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Graph.of_edge_array: n < 0";
  let m = Array.length edges in
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edge_array: vertex out of range")
    edges;
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let xadj = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v) + deg.(v)
  done;
  let cursor = Array.sub xadj 0 n in
  let adj_vertex = Array.make (2 * m) 0 in
  let adj_edge = Array.make (2 * m) 0 in
  let edge_u = Array.make m 0 in
  let edge_v = Array.make m 0 in
  let edge_pos = Array.make (2 * m) 0 in
  Array.iteri
    (fun e (u, v) ->
      edge_u.(e) <- u;
      edge_v.(e) <- v;
      let pu = cursor.(u) in
      cursor.(u) <- pu + 1;
      adj_vertex.(pu) <- v;
      adj_edge.(pu) <- e;
      edge_pos.(2 * e) <- pu;
      let pv = cursor.(v) in
      cursor.(v) <- pv + 1;
      adj_vertex.(pv) <- u;
      adj_edge.(pv) <- e;
      edge_pos.((2 * e) + 1) <- pv)
    edges;
  { n; m; xadj; adj_vertex; adj_edge; edge_u; edge_v; edge_pos }

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

let n g = g.n
let m g = g.m

let degree g v = g.xadj.(v + 1) - g.xadj.(v)
let degrees g = Array.init g.n (degree g)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let min_degree g =
  if g.n = 0 then 0
  else begin
    let best = ref max_int in
    for v = 0 to g.n - 1 do
      if degree g v < !best then best := degree g v
    done;
    !best
  end

let total_degree g = 2 * g.m

let is_regular g = g.n = 0 || max_degree g = min_degree g

let all_degrees_even g =
  let ok = ref true in
  for v = 0 to g.n - 1 do
    if degree g v land 1 = 1 then ok := false
  done;
  !ok

let endpoints g e = (g.edge_u.(e), g.edge_v.(e))

let opposite g e v =
  if g.edge_u.(e) = v then g.edge_v.(e)
  else if g.edge_v.(e) = v then g.edge_u.(e)
  else invalid_arg "Graph.opposite: vertex is not an endpoint"

let adj_start g v = g.xadj.(v)
let adj_stop g v = g.xadj.(v + 1)
let slot_vertex g p = g.adj_vertex.(p)
let slot_edge g p = g.adj_edge.(p)
let edge_positions g e = (g.edge_pos.(2 * e), g.edge_pos.((2 * e) + 1))

let neighbor g v i = g.adj_vertex.(g.xadj.(v) + i)
let neighbor_edge g v i = g.adj_edge.(g.xadj.(v) + i)

let iter_neighbors g v f =
  for p = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    f g.adj_vertex.(p) g.adj_edge.(p)
  done

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun w e -> acc := f !acc w e);
  !acc

let neighbors g v = List.rev (fold_neighbors g v (fun acc w _ -> w :: acc) [])

let iter_edges g f =
  for e = 0 to g.m - 1 do
    f e g.edge_u.(e) g.edge_v.(e)
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun e u v -> acc := f !acc e u v);
  !acc

let edge_list g =
  List.rev (fold_edges g (fun acc _ u v -> (u, v) :: acc) [])

let edge_array g = Array.init g.m (fun e -> (g.edge_u.(e), g.edge_v.(e)))

let mem_edge g u v =
  let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
  let found = ref false in
  iter_neighbors g a (fun w _ -> if w = b then found := true);
  !found

let count_self_loops g =
  fold_edges g (fun acc _ u v -> if u = v then acc + 1 else acc) 0

let count_parallel_edges g =
  let seen = Hashtbl.create (2 * g.m) in
  fold_edges g
    (fun acc _ u v ->
      if u = v then acc
      else begin
        let key = if u < v then (u, v) else (v, u) in
        if Hashtbl.mem seen key then acc + 1
        else begin
          Hashtbl.add seen key ();
          acc
        end
      end)
    0

let is_simple g = count_self_loops g = 0 && count_parallel_edges g = 0

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d])" g.n g.m (min_degree g)
    (max_degree g)
