(* The adversary cannot win: Theorem 1's rule-independence, live.

   The E-process lets an arbitrary rule A pick which unvisited edge to
   follow - even an online adversary that sees the whole process state.
   Theorem 1 says that on an even-degree expander the cover time is O(n)
   regardless.  This example pits increasingly mean adversaries against a
   random 6-regular graph and watches them all lose.

   Run with:  dune exec examples/adversary.exe *)

module Graph = Ewalk_graph.Graph
module Rng = Ewalk_prng.Rng
module Eprocess = Ewalk.Eprocess

(* Adversary 1: re-enter explored territory whenever possible, reading
   how often the walk has stood on each vertex from an occupancy recorder
   attached to it. *)
let stay_explored visits t candidates =
  Ewalk_expt.Exp_util.adversary_stay_explored visits t candidates

(* Adversary 2: end blue phases as fast as possible (head for low blue
   degree). *)
let kill_blue t candidates = Ewalk_expt.Exp_util.adversary_min_blue t candidates

(* Adversary 3: hug the start vertex - always pick the unvisited edge whose
   endpoint is closest to the start, precomputed by BFS. *)
let homebody dist t candidates =
  let g = Eprocess.graph t in
  let here = Eprocess.position t in
  let best = ref 0 and best_d = ref max_int in
  Array.iteri
    (fun i e ->
      let w = Graph.opposite g e here in
      if dist.(w) < !best_d then begin
        best := i;
        best_d := dist.(w)
      end)
    candidates;
  !best

let run ?visits name g rule =
  let rng = Rng.create ~seed:31 () in
  let t = Eprocess.create ~rule g rng ~start:0 in
  let p = Eprocess.process t in
  let p = match visits with Some v -> Ewalk.Visits.attach v p | None -> p in
  match Ewalk.Cover.run_until_vertex_cover p with
  | Some steps ->
      Printf.printf "%-28s covered in %8d steps  (%.2f n)\n" name steps
        (float_of_int steps /. float_of_int (Graph.n g))
  | None -> Printf.printf "%-28s hit the step cap!\n" name

let () =
  let n = Scale.pick ~tiny:2_000 30_000 in
  let rng = Rng.create ~seed:3 () in
  let g = Ewalk_graph.Gen_regular.random_regular_connected rng n 6 in
  Printf.printf
    "random 6-regular graph, n=%d: every rule A must cover in O(n)\n\n" n;
  run "uniform (greedy random walk)" g Eprocess.Uar;
  run "deterministic lowest-slot" g Eprocess.Lowest_slot;
  run "deterministic highest-slot" g Eprocess.Highest_slot;
  let visits = Ewalk.Visits.create g in
  run ~visits "adversary: stay explored" g
    (Eprocess.Adversarial (stay_explored visits));
  run "adversary: kill blue phases" g (Eprocess.Adversarial kill_blue);
  let dist = Ewalk_graph.Traversal.bfs_distances g 0 in
  run "adversary: hug the start" g (Eprocess.Adversarial (homebody dist));
  print_newline ();
  Printf.printf
    "for contrast, a simple random walk pays the log factor: ~%.0f steps\n"
    (Ewalk_theory.Bounds.feige_lower_bound ~n)
