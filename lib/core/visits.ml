open Ewalk_graph

type t = { counts : int array; first : int array (* -1 = unvisited *) }

let create g =
  { counts = Array.make (Graph.n g) 0; first = Array.make (Graph.n g) (-1) }

let visit t ~step v =
  t.counts.(v) <- t.counts.(v) + 1;
  if t.first.(v) < 0 then t.first.(v) <- step

let record t (p : Cover.process) = visit t ~step:(p.steps_done ()) (p.position ())

let attach t (p : Cover.process) =
  if Graph.n p.graph <> Array.length t.counts then
    invalid_arg "Visits.attach: the walk's graph has another size";
  record t p;
  Cover.with_step_hook p ~hook:(record t)

let visit_count t v = t.counts.(v)
let first_visit t v = t.first.(v)
let min_visit_count t = Array.fold_left min max_int t.counts

let run_until_min_visits ?(cap = max_int) ~k t (p : Cover.process) =
  if k < 0 then invalid_arg "Visits.run_until_min_visits: k < 0";
  (* Scanning the visit counts costs O(n); amortise it by only checking
     after the cheap necessary condition (full vertex coverage) holds, and
     then only at the end of each burst of [n/4] steps, or at the cap. *)
  let burst = max 1 (Graph.n p.graph / 4) and s0 = p.steps_done () in
  Cover.run_until ~cap p
    ~finished:(fun () ->
      let s = p.steps_done () in
      ((s - s0) mod burst = 0 || s >= cap)
      && Coverage.all_vertices_visited p.coverage
      && min_visit_count t >= k)
    ~result:p.steps_done
