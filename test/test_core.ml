(* Tests for the core library: Coverage, the generic Cover runners, and the
   E-process itself — including the paper's Observations 10, 11, 12. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Coverage = Ewalk.Coverage
module Cover = Ewalk.Cover
module Eprocess = Ewalk.Eprocess
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* -- Coverage -------------------------------------------------------------- *)

let coverage_basics () =
  let g = Gen_classic.path 4 in
  let c = Coverage.create g in
  Alcotest.(check int) "nothing visited" 0 (Coverage.vertices_visited c);
  Coverage.record_start c 0;
  Alcotest.(check bool) "start visited" true (Coverage.vertex_visited c 0);
  Coverage.record_edge c ~step:1 0;
  Coverage.record_move c ~step:1 1;
  Alcotest.(check int) "two vertices" 2 (Coverage.vertices_visited c);
  Alcotest.(check int) "one edge" 1 (Coverage.edges_visited c);
  Alcotest.(check bool) "not covered" false (Coverage.all_vertices_visited c);
  Alcotest.(check (option int)) "no cover step yet" None
    (Coverage.vertex_cover_step c);
  Coverage.record_edge c ~step:2 1;
  Coverage.record_move c ~step:2 2;
  Coverage.record_edge c ~step:3 2;
  Coverage.record_move c ~step:3 3;
  Alcotest.(check bool) "covered" true (Coverage.all_vertices_visited c);
  Alcotest.(check (option int)) "cover step" (Some 3)
    (Coverage.vertex_cover_step c);
  Alcotest.(check (option int)) "edge cover step" (Some 3)
    (Coverage.edge_cover_step c)

(* A walk on [g] scripted to stand on [path]'s vertices in turn. *)
let scripted g path =
  let pos = ref (List.hd path) and rest = ref (List.tl path) and k = ref 0 in
  {
    Cover.name = "scripted";
    graph = g;
    position = (fun () -> !pos);
    step =
      (fun () ->
        pos := List.hd !rest;
        rest := List.tl !rest;
        incr k);
    steps_done = (fun () -> !k);
    coverage = Coverage.create g;
  }

let coverage_visit_counts () =
  let g = Gen_classic.path 3 in
  let visits = Ewalk.Visits.create g in
  let p = Ewalk.Visits.attach visits (scripted g [ 0; 1; 0; 0 ]) in
  Cover.run_steps p 3;
  Alcotest.(check int) "vertex 0 three times (a stay counts)" 3
    (Ewalk.Visits.visit_count visits 0);
  Alcotest.(check int) "vertex 1 once" 1 (Ewalk.Visits.visit_count visits 1);
  Alcotest.(check int) "first visits" 1 (Ewalk.Visits.first_visit visits 1);
  Alcotest.(check int) "start first visited at 0" 0
    (Ewalk.Visits.first_visit visits 0);
  Alcotest.(check int) "vertex 2 unseen" (-1) (Ewalk.Visits.first_visit visits 2);
  Alcotest.(check int) "min count 0 (vertex 2 unseen)" 0
    (Ewalk.Visits.min_visit_count visits)

let coverage_edge_traversals () =
  let g = Gen_classic.path 3 in
  let c = Coverage.create g in
  Coverage.record_edge c ~step:1 0;
  Coverage.record_edge c ~step:2 0;
  Alcotest.(check int) "a repeat traversal counts once" 1
    (Coverage.edges_visited c);
  Alcotest.(check bool) "retired in the marks" true
    (Ewalk.Arc_marks.edge_retired (Coverage.marks c) 0);
  Alcotest.(check bool) "edge 1 unvisited" false (Coverage.edge_visited c 1);
  let flags = Coverage.visited_edge_flags c in
  Alcotest.(check (array bool)) "flags" [| true; false |] flags;
  Coverage.record_edge c ~step:5 1;
  Alcotest.(check (option int)) "edge cover at the first traversal of the last"
    (Some 5) (Coverage.edge_cover_step c)

let coverage_empty_graph () =
  let g = Graph.of_edges ~n:0 [] in
  let c = Coverage.create g in
  Alcotest.(check bool) "trivially covered" true
    (Coverage.all_vertices_visited c && Coverage.all_edges_visited c)

(* -- E-process mechanics ---------------------------------------------------- *)

let eprocess_validation () =
  let g = Gen_classic.cycle 4 in
  let rng = Rng.create () in
  Alcotest.check_raises "bad start"
    (Invalid_argument "Eprocess.create: start out of range") (fun () ->
      ignore (Eprocess.create g rng ~start:7));
  Alcotest.check_raises "empty graph"
    (Invalid_argument "Eprocess.create: empty graph") (fun () ->
      ignore (Eprocess.create (Graph.of_edges ~n:0 []) rng ~start:0));
  let iso = Graph.of_edges ~n:2 [] in
  let t = Eprocess.create iso rng ~start:0 in
  Alcotest.check_raises "isolated vertex"
    (Invalid_argument "Engine.step: isolated vertex") (fun () ->
      Eprocess.step t)

let eprocess_initial_state () =
  let g = Gen_classic.cycle 5 in
  let rng = Rng.create () in
  let t = Eprocess.create g rng ~start:2 in
  Alcotest.(check int) "position" 2 (Eprocess.position t);
  Alcotest.(check int) "no steps" 0 (Eprocess.steps t);
  Alcotest.(check int) "all blue" 2 (Eprocess.blue_degree t 2);
  Alcotest.(check bool) "in blue phase" true (Eprocess.in_blue_phase t);
  Alcotest.(check int) "start visited" 1
    (Coverage.vertices_visited (Eprocess.coverage t));
  Alcotest.(check int) "candidates" 2
    (Array.length (Eprocess.unvisited_incident t 2))

let eprocess_cycle_is_deterministic_tour () =
  (* On a cycle every E-process must walk straight round: 2 blue choices at
     the start, then forced; vertex cover in exactly n - 1 steps, edge cover
     in n. *)
  let n = 12 in
  let g = Gen_classic.cycle n in
  let rng = Rng.create ~seed:5 () in
  let t = Eprocess.create g rng ~start:0 in
  let p = Eprocess.process t in
  Alcotest.(check (option int)) "vertex cover n-1" (Some (n - 1))
    (Cover.run_until_vertex_cover p);
  Alcotest.(check (option int)) "edge cover n" (Some n)
    (Cover.run_until_edge_cover p);
  Alcotest.(check int) "all steps blue" n (Eprocess.blue_steps t);
  Alcotest.(check int) "position back at start" 0 (Eprocess.position t)

let eprocess_blue_steps_bounded_by_m () =
  let rng = Rng.create ~seed:6 () in
  let g = Gen_regular.random_regular_connected rng 60 4 in
  let t = Eprocess.create g rng ~start:0 in
  let p = Eprocess.process t in
  ignore (Cover.run_until_edge_cover ~cap:(Cover.default_cap g) p);
  (* Each blue step visits a fresh edge, so blue steps = m at edge cover. *)
  Alcotest.(check int) "blue steps = m" (Graph.m g) (Eprocess.blue_steps t);
  Alcotest.(check int) "steps add up"
    (Eprocess.blue_steps t + Eprocess.red_steps t)
    (Eprocess.steps t)

let eprocess_self_loop () =
  (* Even-degree multigraph with a self-loop: the loop is one blue edge and
     must be consumed exactly once. *)
  let g = Graph.of_edges ~n:2 [ (0, 0); (0, 1); (0, 1) ] in
  Alcotest.(check bool) "even degrees" true (Graph.all_degrees_even g);
  let rng = Rng.create ~seed:7 () in
  let t = Eprocess.create g rng ~start:0 in
  let p = Eprocess.process t in
  Alcotest.(check (option int)) "edge cover = m" (Some 3)
    (Cover.run_until_edge_cover ~cap:100 p);
  Alcotest.(check int) "blue = m" 3 (Eprocess.blue_steps t)

let eprocess_deterministic_rules_reproducible () =
  let g = Gen_regular.random_regular (Rng.create ~seed:8 ()) 40 4 in
  let trajectory rule =
    let t = Eprocess.create ~rule g (Rng.create ~seed:9 ()) ~start:0 in
    let acc = ref [] in
    for _ = 1 to 200 do
      Eprocess.step t;
      acc := Eprocess.position t :: !acc
    done;
    !acc
  in
  Alcotest.(check (list int)) "lowest-slot reproducible"
    (trajectory Eprocess.Lowest_slot)
    (trajectory Eprocess.Lowest_slot);
  Alcotest.(check (list int)) "highest-slot reproducible"
    (trajectory Eprocess.Highest_slot)
    (trajectory Eprocess.Highest_slot)

let eprocess_adversary_sees_candidates () =
  let g = Gen_classic.torus2d 4 4 in
  let seen_empty = ref false in
  let rule =
    Eprocess.Adversarial
      (fun t candidates ->
        if Array.length candidates = 0 then seen_empty := true;
        (* Candidates must all be unvisited edges at the current vertex. *)
        let here = Eprocess.position t in
        Array.iter
          (fun e ->
            let u, v = Graph.endpoints (Eprocess.graph t) e in
            if u <> here && v <> here then seen_empty := true)
          candidates;
        1_000_000 (* deliberately out of range: must be clamped *))
  in
  let rng = Rng.create ~seed:10 () in
  let t = Eprocess.create ~rule g rng ~start:0 in
  let p = Eprocess.process t in
  (match Cover.run_until_edge_cover ~cap:(Cover.default_cap g) p with
  | Some _ -> ()
  | None -> Alcotest.fail "adversarial run capped");
  Alcotest.(check bool) "callback contract held" false !seen_empty

let eprocess_unvisited_incident_dedupes_loop () =
  let g = Graph.of_edges ~n:1 [ (0, 0) ] in
  let t = Eprocess.create g (Rng.create ()) ~start:0 in
  Alcotest.(check int) "loop listed once" 1
    (Array.length (Eprocess.unvisited_incident t 0));
  Alcotest.(check int) "blue degree counts both slots" 2
    (Eprocess.blue_degree t 0)

(* -- Observation 10/11/12 --------------------------------------------------- *)

(* Generator for connected even-degree graphs: unions of Hamiltonian cycles. *)
let even_graph_of_seed seed r =
  let rng = Rng.create ~seed () in
  Gen_regular.cycle_union rng 16 r

let obs10_blue_phases_return =
  QCheck.Test.make
    ~name:"Obs 10: every completed blue phase ends at its start (even degree)"
    ~count:60
    QCheck.(triple small_int (int_range 1 3) (int_range 0 2))
    (fun (seed, r, rule_idx) ->
      let g = even_graph_of_seed seed r in
      let rule =
        match rule_idx with
        | 0 -> Eprocess.Uar
        | 1 -> Eprocess.Lowest_slot
        | _ -> Eprocess.Highest_slot
      in
      let rng = Rng.create ~seed:(seed + 1000) () in
      let t = Eprocess.create ~rule g rng ~start:0 in
      let phase_log = Eprocess.phase_log t in
      let p = Eprocess.process t in
      ignore (Cover.run_until_edge_cover ~cap:(Cover.default_cap g) p);
      List.for_all
        (fun ph ->
          ph.Eprocess.kind <> Eprocess.Blue
          || ph.Eprocess.start_vertex = ph.Eprocess.end_vertex)
        (phase_log ()))

let obs11_blue_degrees_even =
  QCheck.Test.make
    ~name:"Obs 11: in red phases all blue degrees are even (even degree)"
    ~count:40
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, r) ->
      let g = even_graph_of_seed seed r in
      let rng = Rng.create ~seed:(seed + 2000) () in
      let t = Eprocess.create g rng ~start:0 in
      let ok = ref true in
      let steps = ref 0 in
      while
        (not (Coverage.all_edges_visited (Eprocess.coverage t)))
        && !steps < 100_000
      do
        Eprocess.step t;
        incr steps;
        if not (Eprocess.in_blue_phase t) then begin
          (* Red phase: check parity of every vertex's blue degree. *)
          for v = 0 to Graph.n g - 1 do
            if Eprocess.blue_degree t v land 1 = 1 then ok := false
          done
        end
      done;
      !ok)

let obs11_unvisited_vertex_all_blue =
  QCheck.Test.make
    ~name:"Obs 11.1: an unvisited vertex has full blue degree" ~count:40
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, r) ->
      let g = even_graph_of_seed seed r in
      let rng = Rng.create ~seed:(seed + 3000) () in
      let t = Eprocess.create g rng ~start:0 in
      let ok = ref true in
      for _ = 1 to 40 do
        Eprocess.step t;
        for v = 0 to Graph.n g - 1 do
          if
            (not (Coverage.vertex_visited (Eprocess.coverage t) v))
            && Eprocess.blue_degree t v <> Graph.degree g v
          then ok := false
        done
      done;
      !ok)

let obs12_edge_cover_sandwich =
  QCheck.Test.make
    ~name:"Obs 12 / eq (3): m <= C_E; red steps = embedded SRW length"
    ~count:40
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, r) ->
      let g = even_graph_of_seed seed r in
      let rng = Rng.create ~seed:(seed + 4000) () in
      let t = Eprocess.create g rng ~start:0 in
      let p = Eprocess.process t in
      match Cover.run_until_edge_cover ~cap:(Cover.default_cap g) p with
      | None -> false
      | Some ce ->
          ce >= Graph.m g && Eprocess.blue_steps t = Graph.m g
          && ce = Eprocess.steps t)

let phases_alternate () =
  let g = Gen_regular.cycle_union (Rng.create ~seed:11 ()) 20 2 in
  let t = Eprocess.create g (Rng.create ~seed:12 ()) ~start:0 in
  let phase_log = Eprocess.phase_log t in
  let p = Eprocess.process t in
  ignore (Cover.run_until_edge_cover ~cap:(Cover.default_cap g) p);
  (* A walk whose first blue phase is an Euler tour covers every edge with
     that phase still open; the next step is red and closes it. *)
  Eprocess.step t;
  let phases = phase_log () in
  Alcotest.(check bool) "at least one phase" true (List.length phases >= 1);
  let rec alternates = function
    | a :: (b :: _ as rest) ->
        a.Eprocess.kind <> b.Eprocess.kind && alternates rest
    | _ -> true
  in
  Alcotest.(check bool) "phases alternate" true (alternates phases);
  (match phases with
  | first :: _ ->
      Alcotest.(check bool) "first phase is blue" true
        (first.Eprocess.kind = Eprocess.Blue)
  | [] -> ());
  (* Phase boundaries are consistent: end of one = start of next. *)
  let rec chained = function
    | a :: (b :: _ as rest) ->
        a.Eprocess.end_step = b.Eprocess.start_step
        && a.Eprocess.end_vertex = b.Eprocess.start_vertex
        && chained rest
    | _ -> true
  in
  Alcotest.(check bool) "phases chain" true (chained phases)

let phase_lengths_account_steps () =
  (* The recorded phases partition the run: alternating
     kinds, contiguous boundaries, and the blue-phase lengths summing to
     exactly blue_steps once the final blue phase has been closed (after
     edge cover every step is red, so one extra step closes it). *)
  let g = Gen_regular.cycle_union (Rng.create ~seed:21 ()) 30 2 in
  let t = Eprocess.create g (Rng.create ~seed:22 ()) ~start:0 in
  let phase_log = Eprocess.phase_log t in
  let p = Eprocess.process t in
  (match Cover.run_until_edge_cover ~cap:(Cover.default_cap g) p with
  | Some _ -> ()
  | None -> Alcotest.fail "edge cover not reached");
  Eprocess.step t;
  let phases = phase_log () in
  let rec alternates = function
    | a :: (b :: _ as rest) ->
        a.Eprocess.kind <> b.Eprocess.kind && alternates rest
    | _ -> true
  in
  Alcotest.(check bool) "alternate" true (alternates phases);
  let rec chained = function
    | a :: (b :: _ as rest) ->
        a.Eprocess.end_step = b.Eprocess.start_step && chained rest
    | _ -> true
  in
  Alcotest.(check bool) "contiguous" true (chained phases);
  let blue_len =
    List.fold_left
      (fun acc ph ->
        if ph.Eprocess.kind = Eprocess.Blue then
          acc + (ph.Eprocess.end_step - ph.Eprocess.start_step)
        else acc)
      0 phases
  in
  Alcotest.(check int) "blue phase lengths sum to blue_steps"
    (Eprocess.blue_steps t) blue_len

(* -- Cover runners ----------------------------------------------------------- *)

let cover_cap_respected () =
  let g = Gen_classic.cycle 50 in
  let rng = Rng.create ~seed:13 () in
  let t = Ewalk.Srw.create g rng ~start:0 in
  let p = Ewalk.Srw.process t in
  Alcotest.(check (option int)) "cap hit" None
    (Cover.run_until_vertex_cover ~cap:10 p);
  Alcotest.(check int) "stopped at cap" 10 (Ewalk.Srw.steps t)

let cover_resumable () =
  let g = Gen_classic.cycle 10 in
  let rng = Rng.create ~seed:14 () in
  let t = Eprocess.create g rng ~start:0 in
  let p = Eprocess.process t in
  Cover.run_steps p 3;
  (match Cover.run_until_vertex_cover p with
  | Some s -> Alcotest.(check int) "resumed count is global" 9 s
  | None -> Alcotest.fail "should cover");
  Alcotest.(check (option int)) "idempotent once covered" (Some 9)
    (Cover.run_until_vertex_cover p)

let cover_min_visits () =
  let g = Gen_classic.complete 6 in
  let rng = Rng.create ~seed:15 () in
  let t = Ewalk.Srw.create g rng ~start:0 in
  let visits = Ewalk.Visits.create g in
  let p = Ewalk.Visits.attach visits (Ewalk.Srw.process t) in
  match Ewalk.Visits.run_until_min_visits ~cap:1_000_000 ~k:3 visits p with
  | None -> Alcotest.fail "min visits should be reachable"
  | Some steps ->
      Alcotest.(check bool) "positive" true (steps > 0);
      for v = 0 to 5 do
        Alcotest.(check bool) "every vertex 3 visits" true
          (Ewalk.Visits.visit_count visits v >= 3)
      done

let default_cap_scales () =
  let small = Cover.default_cap (Gen_classic.cycle 10) in
  let large = Cover.default_cap (Gen_classic.cycle 1000) in
  Alcotest.(check bool) "monotone in n" true (large > small)

let () =
  Alcotest.run "core"
    [
      ( "coverage",
        [
          Alcotest.test_case "basics" `Quick coverage_basics;
          Alcotest.test_case "visit counts" `Quick coverage_visit_counts;
          Alcotest.test_case "edge traversals" `Quick coverage_edge_traversals;
          Alcotest.test_case "empty graph" `Quick coverage_empty_graph;
        ] );
      ( "eprocess",
        [
          Alcotest.test_case "validation" `Quick eprocess_validation;
          Alcotest.test_case "initial state" `Quick eprocess_initial_state;
          Alcotest.test_case "cycle tour" `Quick
            eprocess_cycle_is_deterministic_tour;
          Alcotest.test_case "blue steps = m" `Quick
            eprocess_blue_steps_bounded_by_m;
          Alcotest.test_case "self loop" `Quick eprocess_self_loop;
          Alcotest.test_case "deterministic rules" `Quick
            eprocess_deterministic_rules_reproducible;
          Alcotest.test_case "adversary contract" `Quick
            eprocess_adversary_sees_candidates;
          Alcotest.test_case "loop dedup" `Quick
            eprocess_unvisited_incident_dedupes_loop;
          Alcotest.test_case "phases alternate" `Quick phases_alternate;
          Alcotest.test_case "phase lengths account steps" `Quick
            phase_lengths_account_steps;
        ] );
      ( "observations",
        [
          qcheck obs10_blue_phases_return;
          qcheck obs11_blue_degrees_even;
          qcheck obs11_unvisited_vertex_all_blue;
          qcheck obs12_edge_cover_sandwich;
        ] );
      ( "cover",
        [
          Alcotest.test_case "cap respected" `Quick cover_cap_respected;
          Alcotest.test_case "resumable" `Quick cover_resumable;
          Alcotest.test_case "min visits" `Quick cover_min_visits;
          Alcotest.test_case "default cap" `Quick default_cap_scales;
        ] );
    ]
