open Ewalk_graph

type t = {
  n : int;
  m : int;
  marks : Arc_marks.t; (* every traversed edge retired *)
  seen : Bytes.t; (* every visited vertex: a Bitset's bytes, LSB-first *)
  mutable vertices_seen : int;
  mutable edges_seen : int;
  mutable vertex_cover_step : int; (* -1 until covered *)
  mutable edge_cover_step : int;
}

let create g =
  let n = Graph.n g and m = Graph.m g in
  {
    n;
    m;
    marks = Arc_marks.create g;
    seen = Bitset.unsafe_bytes (Bitset.create n);
    vertices_seen = 0;
    edges_seen = 0;
    vertex_cover_step = (if n = 0 then 0 else -1);
    edge_cover_step = (if m = 0 then 0 else -1);
  }

(* The vertex set's bit ops, inline on the step path. *)
let seen_bit t v =
  if v < 0 || v >= t.n then invalid_arg "Coverage: vertex out of range";
  Char.code (Bytes.unsafe_get t.seen (v lsr 3)) land (1 lsl (v land 7))

let record_move t ~step v =
  if seen_bit t v = 0 then begin
    let j = v lsr 3 in
    let byte = Char.code (Bytes.unsafe_get t.seen j) in
    Bytes.unsafe_set t.seen j (Char.unsafe_chr (byte lor (1 lsl (v land 7))));
    t.vertices_seen <- t.vertices_seen + 1;
    if t.vertices_seen = t.n then t.vertex_cover_step <- step
  end

let record_start t v = record_move t ~step:0 v

let record_edge t ~step e =
  if not (Arc_marks.edge_retired t.marks e) then begin
    Arc_marks.retire_edge t.marks e;
    t.edges_seen <- t.edges_seen + 1;
    if t.edges_seen = t.m then t.edge_cover_step <- step
  end

let marks t = t.marks
let total_vertices t = t.n
let total_edges t = t.m

let vertex_fraction t =
  if t.n = 0 then 1.0 else float_of_int t.vertices_seen /. float_of_int t.n

let edge_fraction t =
  if t.m = 0 then 1.0 else float_of_int t.edges_seen /. float_of_int t.m

let vertex_visited t v = seen_bit t v <> 0
let edge_visited t e = Arc_marks.edge_retired t.marks e
let vertices_visited t = t.vertices_seen
let edges_visited t = t.edges_seen
let all_vertices_visited t = t.vertices_seen = t.n
let all_edges_visited t = t.edges_seen = t.m

let vertex_cover_step t =
  if t.vertex_cover_step < 0 then None else Some t.vertex_cover_step

let edge_cover_step t =
  if t.edge_cover_step < 0 then None else Some t.edge_cover_step

let visited_edge_flags t = Array.init t.m (edge_visited t)

type state = {
  s_edges : Bitset.t;
  s_vertices : Bitset.t;
  s_vertex_cover_step : int;
  s_edge_cover_step : int;
}

let save t =
  {
    s_edges = Arc_marks.edge_set t.marks;
    s_vertices = Bitset.of_bytes ~len:t.n (Bytes.copy t.seen);
    s_vertex_cover_step = t.vertex_cover_step;
    s_edge_cover_step = t.edge_cover_step;
  }

(* A cover step is set exactly when its set is full, and then no later
   than the walk's clock: a resumed walk that is covered must know when. *)
let check_cover_step ~what ~clock ~full step =
  if step < -1 || (step >= 0) <> full then
    invalid_arg
      (Printf.sprintf
         "Coverage.restore: %s cover step %d disagrees with the %s set" what
         step what);
  if step > clock then
    invalid_arg
      (Printf.sprintf "Coverage.restore: %s cover step %d is past the clock %d"
         what step clock)

let restore g ~clock s =
  let n = Graph.n g and m = Graph.m g in
  if Bitset.length s.s_vertices <> n then
    invalid_arg "Coverage.restore: vertex set does not match the graph";
  if Bitset.length s.s_edges <> m then
    invalid_arg "Coverage.restore: edge set does not match the graph";
  let vertices_seen = Bitset.popcount s.s_vertices in
  let edges_seen = Bitset.popcount s.s_edges in
  check_cover_step ~what:"vertex" ~clock ~full:(vertices_seen = n)
    s.s_vertex_cover_step;
  check_cover_step ~what:"edge" ~clock ~full:(edges_seen = m)
    s.s_edge_cover_step;
  {
    n;
    m;
    marks = Arc_marks.of_edge_set g s.s_edges;
    seen = Bytes.copy (Bitset.unsafe_bytes s.s_vertices);
    vertices_seen;
    edges_seen;
    vertex_cover_step = s.s_vertex_cover_step;
    edge_cover_step = s.s_edge_cover_step;
  }
