type vertex = int
type edge = int

(* Each layout array is a row of 32-bit ints held in [Bytes], four bytes
   an entry, read and written through bounds-checked primitives. *)
type t = {
  n : int;
  m : int;
  xadj : Bytes.t; (* n + 1 row offsets into the slot arrays *)
  adj_vertex : Bytes.t; (* 2m: neighbour stored at each slot *)
  adj_edge : Bytes.t; (* 2m: undirected edge id stored at each slot *)
  twin : Bytes.t; (* 2m: the other slot of the same edge *)
  arc0 : Bytes.t; (* m: edge e's slot in its first endpoint's row *)
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] get a i = Int32.to_int (get32 a (4 * i))
let[@inline] set a i x = set32 a (4 * i) (Int32.of_int x)
let ints k = Bytes.create (4 * k)

(* Vertex ids, edge ids, slot positions and row offsets are all stored as
   int32, so [n] and [2m] must fit; checked before anything is
   allocated. *)
let max_index = 0x7FFF_FFFF

let check_size ~who ~n ~slots =
  if n > max_index || slots > max_index then
    invalid_arg (who ^ ": n or 2m exceeds 2^31 - 1")

(* Edge [e] joins [u] (slot [pu], in u's row) to [v] (slot [pv]). *)
let link ~adj_vertex ~adj_edge ~twin ~arc0 e u v pu pv =
  set adj_vertex pu v;
  set adj_edge pu e;
  set adj_vertex pv u;
  set adj_edge pv e;
  set twin pu pv;
  set twin pv pu;
  set arc0 e pu

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Graph.of_edge_array: n < 0";
  let m = Array.length edges in
  check_size ~who:"Graph.of_edge_array" ~n ~slots:(2 * m);
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edge_array: vertex out of range")
    edges;
  (* Count each row's degree at its end offset, then sum the prefixes. *)
  let xadj = Bytes.make (4 * (n + 1)) '\000' in
  Array.iter
    (fun (u, v) ->
      set xadj (u + 1) (get xadj (u + 1) + 1);
      set xadj (v + 1) (get xadj (v + 1) + 1))
    edges;
  for v = 1 to n do
    set xadj v (get xadj v + get xadj (v - 1))
  done;
  let cursor = Bytes.sub xadj 0 (4 * n) in
  let adj_vertex = ints (2 * m) and adj_edge = ints (2 * m) in
  let twin = ints (2 * m) and arc0 = ints m in
  Array.iteri
    (fun e (u, v) ->
      let pu = get cursor u in
      set cursor u (pu + 1);
      let pv = get cursor v in
      set cursor v (pv + 1);
      link ~adj_vertex ~adj_edge ~twin ~arc0 e u v pu pv)
    edges;
  { n; m; xadj; adj_vertex; adj_edge; twin; arc0 }

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

let n g = g.n
let m g = g.m

let degree g v = get g.xadj (v + 1) - get g.xadj v
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

let adj_start g v = get g.xadj v
let adj_stop g v = get g.xadj (v + 1)
let slot_vertex g p = get g.adj_vertex p
let slot_edge g p = get g.adj_edge p
let slot_twin g p = get g.twin p

let edge_slot g e i =
  match i with
  | 0 -> get g.arc0 e
  | 1 -> get g.twin (get g.arc0 e)
  | _ -> invalid_arg "Graph.edge_slot: arc index is not 0 or 1"

(* Arc 0 lies in the first endpoint's row and stores the second. *)
let endpoints g e =
  let a = get g.arc0 e in
  (get g.adj_vertex (get g.twin a), get g.adj_vertex a)

let opposite g e v =
  let a = get g.arc0 e in
  let u = get g.adj_vertex (get g.twin a) and w = get g.adj_vertex a in
  if u = v then w
  else if w = v then u
  else invalid_arg "Graph.opposite: vertex is not an endpoint"

let neighbor g v i = get g.adj_vertex (get g.xadj v + i)
let neighbor_edge g v i = get g.adj_edge (get g.xadj v + i)

let iter_neighbors g v f =
  for p = get g.xadj v to get g.xadj (v + 1) - 1 do
    f (get g.adj_vertex p) (get g.adj_edge p)
  done

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun w e -> acc := f !acc w e);
  !acc

let neighbors g v = List.rev (fold_neighbors g v (fun acc w _ -> w :: acc) [])

let iter_edges g f =
  for e = 0 to g.m - 1 do
    let a = get g.arc0 e in
    f e (get g.adj_vertex (get g.twin a)) (get g.adj_vertex a)
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun e u v -> acc := f !acc e u v);
  !acc

let edge_list g =
  List.rev (fold_edges g (fun acc _ u v -> (u, v) :: acc) [])

let edge_array g = Array.init g.m (endpoints g)

let mem_edge g u v =
  let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
  let found = ref false in
  iter_neighbors g a (fun w _ -> if w = b then found := true);
  !found

(* A loop at [u] fills two slots of [u]'s own row: count them in slot
   order, without the random reads of an edge-order pass. *)
let count_self_loops g =
  let slots = ref 0 in
  for u = 0 to g.n - 1 do
    for p = get g.xadj u to get g.xadj (u + 1) - 1 do
      if get g.adj_vertex p = u then incr slots
    done
  done;
  !slots / 2

let count_parallel_edges g =
  (* Stamp each neighbour with the row being scanned: one met again in
     the same row is a parallel edge.  A pair is counted from its lower
     endpoint's row only, and a loop not at all. *)
  let stamp = Array.make g.n (-1) in
  let count = ref 0 in
  for u = 0 to g.n - 1 do
    for p = get g.xadj u to get g.xadj (u + 1) - 1 do
      let w = get g.adj_vertex p in
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
  iter_edges g (fun _ u v ->
      add u;
      add v);
  for p = 0 to (2 * g.m) - 1 do
    add (get g.adj_vertex p);
    add (get g.adj_edge p)
  done;
  for e = 0 to g.m - 1 do
    let a = get g.arc0 e in
    add a;
    add (get g.twin a)
  done;
  flush ();
  Digest.to_hex (Digest.string (Buffer.contents blocks))

module Rows = struct
  type graph = t

  type t = {
    n : int;
    width : int;
    mutable m : int; (* edges placed: the next edge's id *)
    (* The graph's slot arrays under construction (see [graph]);
       [adj_vertex] holds -1 at a free slot. *)
    mutable adj_vertex : Bytes.t;
    mutable adj_edge : Bytes.t;
    mutable twin : Bytes.t;
    mutable arc0 : Bytes.t;
  }

  let create ~n ~width =
    if n < 0 || width < 0 then invalid_arg "Graph.Rows.create: negative size";
    (* [n * width] saturates rather than overflows. *)
    let slots = if width > 0 && n > max_index / width then max_int else n * width in
    check_size ~who:"Graph.Rows.create" ~n ~slots;
    if slots land 1 = 1 then invalid_arg "Graph.Rows.create: n * width is odd";
    {
      n;
      width;
      m = 0;
      adj_vertex = Bytes.make (4 * slots) '\255';
      adj_edge = ints slots;
      twin = ints slots;
      arc0 = ints (slots / 2);
    }

  let clear t =
    Bytes.fill t.adj_vertex 0 (Bytes.length t.adj_vertex) '\255';
    t.m <- 0

  (* A row fills from its start, so its first free slot ends the scan. *)
  let adjacent t u v =
    let a = t.adj_vertex in
    let p = ref (u * t.width) and stop = (u + 1) * t.width in
    while !p < stop && get a !p >= 0 && get a !p <> v do
      incr p
    done;
    !p < stop && get a !p = v

  let free_slot t v =
    let a = t.adj_vertex in
    let p = ref (v * t.width) and stop = (v + 1) * t.width in
    while !p < stop && get a !p >= 0 do
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
    link ~adj_vertex:t.adj_vertex ~adj_edge:t.adj_edge ~twin:t.twin ~arc0:t.arc0
      e u v pu pv;
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
          let w = get a p in
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
    let xadj = ints (t.n + 1) in
    for v = 0 to t.n do
      set xadj v (v * t.width)
    done;
    let g : graph =
      {
        n = t.n;
        m = t.m;
        xadj;
        adj_vertex = t.adj_vertex;
        adj_edge = t.adj_edge;
        twin = t.twin;
        arc0 = t.arc0;
      }
    in
    (* The graph owns the arrays now: the table keeps no alias of them. *)
    t.adj_vertex <- Bytes.empty;
    t.adj_edge <- Bytes.empty;
    t.twin <- Bytes.empty;
    t.arc0 <- Bytes.empty;
    g
end

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d])" g.n g.m (min_degree g)
    (max_degree g)
