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
let edge_slot g e i = g.edge_pos.((2 * e) + i)

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
  (* Stamp each neighbour with the row being scanned: one met again in
     the same row is a parallel edge.  A pair is counted from its lower
     endpoint's row only, and a loop not at all. *)
  let stamp = Array.make g.n (-1) in
  let count = ref 0 in
  for u = 0 to g.n - 1 do
    for p = g.xadj.(u) to g.xadj.(u + 1) - 1 do
      let w = g.adj_vertex.(p) in
      if w > u then if stamp.(w) = u then incr count else stamp.(w) <- u
    done
  done;
  !count

let is_simple g = count_self_loops g = 0 && count_parallel_edges g = 0

let digest g =
  let block = Bytes.create 65536 in
  let fill = ref 0 in
  let blocks = Buffer.create 64 in
  let flush () =
    Buffer.add_string blocks (Digest.subbytes block 0 !fill);
    fill := 0
  in
  let add x =
    if !fill = Bytes.length block then flush ();
    Bytes.set_int64_le block !fill (Int64.of_int x);
    fill := !fill + 8
  in
  for e = 0 to g.m - 1 do
    add g.edge_u.(e);
    add g.edge_v.(e)
  done;
  for p = 0 to (2 * g.m) - 1 do
    add g.adj_vertex.(p);
    add g.adj_edge.(p)
  done;
  Array.iter add g.edge_pos;
  flush ();
  Digest.to_hex (Digest.string (Buffer.contents blocks))

module Rows = struct
  type graph = t

  type t = {
    n : int;
    width : int;
    mutable m : int; (* edges placed: the next edge's id *)
    mutable adj_vertex : int array; (* n * width; -1 marks a free slot *)
    mutable adj_edge : int array; (* n * width *)
    mutable edge_u : int array; (* n * width / 2 *)
    mutable edge_v : int array;
    mutable edge_pos : int array; (* n * width *)
  }

  let create ~n ~width =
    if n < 0 || width < 0 then invalid_arg "Graph.Rows.create: negative size";
    if n * width land 1 = 1 then invalid_arg "Graph.Rows.create: n * width is odd";
    let slots = n * width in
    {
      n;
      width;
      m = 0;
      adj_vertex = Array.make slots (-1);
      adj_edge = Array.make slots 0;
      edge_u = Array.make (slots / 2) 0;
      edge_v = Array.make (slots / 2) 0;
      edge_pos = Array.make slots 0;
    }

  let clear t =
    Array.fill t.adj_vertex 0 (Array.length t.adj_vertex) (-1);
    t.m <- 0

  (* A row fills from its start, so its first free slot ends the scan. *)
  let adjacent t u v =
    let a = t.adj_vertex in
    let p = ref (u * t.width) and stop = (u + 1) * t.width in
    while !p < stop && a.(!p) >= 0 && a.(!p) <> v do
      incr p
    done;
    !p < stop && a.(!p) = v

  let free_slot t v =
    let a = t.adj_vertex in
    let p = ref (v * t.width) and stop = (v + 1) * t.width in
    while !p < stop && a.(!p) >= 0 do
      incr p
    done;
    if !p = stop then invalid_arg "Graph.Rows.add_edge: row full";
    !p

  let add_edge t u v =
    if u < 0 || u >= t.n || v < 0 || v >= t.n then
      invalid_arg "Graph.Rows.add_edge: vertex out of range";
    let pu = free_slot t u in
    let pv =
      if u <> v then free_slot t v
      else if pu + 1 < (u + 1) * t.width then pu + 1
      else invalid_arg "Graph.Rows.add_edge: row full"
    in
    let e = t.m in
    t.adj_vertex.(pu) <- v;
    t.adj_edge.(pu) <- e;
    t.adj_vertex.(pv) <- u;
    t.adj_edge.(pv) <- e;
    t.edge_u.(e) <- u;
    t.edge_v.(e) <- v;
    t.edge_pos.(2 * e) <- pu;
    t.edge_pos.((2 * e) + 1) <- pv;
    t.m <- e + 1

  let connected t ~stack =
    let n = t.n in
    if n <= 1 then true
    else if t.m = 0 then false
    else begin
      if Array.length stack < n then
        invalid_arg "Graph.Rows.connected: stack shorter than n";
      let a = t.adj_vertex and width = t.width in
      let seen = Bytes.make n '\000' in
      Bytes.set seen 0 '\001';
      stack.(0) <- 0;
      let top = ref 1 and reached = ref 1 in
      while !top > 0 do
        decr top;
        let v = stack.(!top) in
        for p = v * width to ((v + 1) * width) - 1 do
          let w = a.(p) in
          if w >= 0 && Bytes.get seen w = '\000' then begin
            Bytes.set seen w '\001';
            stack.(!top) <- w;
            incr top;
            incr reached
          end
        done
      done;
      !reached = n
    end

  let freeze t : graph =
    if 2 * t.m <> t.n * t.width then invalid_arg "Graph.Rows.freeze: a row is not full";
    let width = t.width in
    let g : graph =
      {
        n = t.n;
        m = t.m;
        xadj = Array.init (t.n + 1) (fun v -> v * width);
        adj_vertex = t.adj_vertex;
        adj_edge = t.adj_edge;
        edge_u = t.edge_u;
        edge_v = t.edge_v;
        edge_pos = t.edge_pos;
      }
    in
    (* The graph owns the arrays now: the table keeps no alias of them. *)
    t.adj_vertex <- [||];
    t.adj_edge <- [||];
    t.edge_u <- [||];
    t.edge_v <- [||];
    t.edge_pos <- [||];
    g
end

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d])" g.n g.m (min_degree g)
    (max_degree g)
