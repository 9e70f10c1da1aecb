(* Tests for the team E-process — W cooperating E_uar walkers of one
   engine — and its shared bookkeeping. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Engine = Ewalk.Engine
module Arc_marks = Ewalk.Arc_marks
module Coverage = Ewalk.Coverage
module Cover = Ewalk.Cover
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* -- unvisited-edge marks ------------------------------------------------------ *)

(* The marks' counting functions over vertex [v]'s slot region. *)
let live g u v =
  Arc_marks.live u ~start:(Graph.adj_start g v) ~stop:(Graph.adj_stop g v)

let unvisited_initial () =
  let g = Gen_classic.torus2d 3 3 in
  let u = Arc_marks.create g in
  for v = 0 to Graph.n g - 1 do
    let start = Graph.adj_start g v and stop = Graph.adj_stop g v in
    Alcotest.(check int) "all live" (Graph.degree g v) (live g u v);
    Alcotest.(check int) "first live slot" start
      (Arc_marks.first_live u ~start ~stop);
    Alcotest.(check int) "last live slot" (stop - 1)
      (Arc_marks.last_live u ~start ~stop)
  done

let unvisited_retire () =
  let g = Gen_classic.cycle 4 in
  let u = Arc_marks.create g in
  Arc_marks.retire_slot u (Graph.edge_slot g 0 0);
  let a, b = Graph.endpoints g 0 in
  Alcotest.(check int) "endpoint a" 1 (live g u a);
  Alcotest.(check int) "endpoint b" 1 (live g u b);
  Alcotest.(check bool) "edge test" true (Arc_marks.edge_retired u 0);
  (* The retired edge no longer appears among live slots. *)
  for v = 0 to 3 do
    Array.iter
      (fun e -> Alcotest.(check bool) "edge 0 gone" true (e <> 0))
      (Arc_marks.incident_edges u v);
    let start = Graph.adj_start g v and stop = Graph.adj_stop g v in
    for k = 0 to live g u v - 1 do
      Alcotest.(check bool) "live slot carries a live edge" true
        (Graph.slot_edge g (Arc_marks.nth_live u ~start ~stop k) <> 0)
    done
  done

let unvisited_self_loop () =
  let g = Graph.of_edges ~n:1 [ (0, 0) ] in
  let u = Arc_marks.create g in
  Alcotest.(check int) "loop counts twice" 2 (live g u 0);
  Alcotest.(check int) "listed once" 1
    (Array.length (Arc_marks.incident_edges u 0));
  Arc_marks.retire_slot u (Graph.edge_slot g 0 1);
  Alcotest.(check int) "both slots retired" 0 (live g u 0)

let unvisited_slot_with_edge () =
  let g = Gen_classic.cycle 5 in
  let u = Arc_marks.create g in
  let slot = Arc_marks.slot_of_edge u 0 0 in
  Alcotest.(check int) "slot carries edge" 0 (Graph.slot_edge g slot);
  Arc_marks.retire_slot u slot;
  Alcotest.check_raises "gone" Not_found (fun () ->
      ignore (Arc_marks.slot_of_edge u 0 0))

(* -- team --------------------------------------------------------------------- *)

let team_validation () =
  let g = Gen_classic.cycle 5 in
  let rng = Rng.create () in
  Alcotest.check_raises "no walkers" (Invalid_argument "Engine.create: no walkers")
    (fun () -> ignore (Engine.create Engine.E_uar g rng ~starts:[||]));
  Alcotest.check_raises "bad start"
    (Invalid_argument "Engine.create: start out of range") (fun () ->
      ignore (Engine.create Engine.E_uar g rng ~starts:[| 9 |]));
  Alcotest.check_raises "bad count"
    (Invalid_argument "Engine.create_spread: walkers < 1") (fun () ->
      ignore (Engine.create_spread Engine.E_uar g rng ~walkers:0))

let team_single_walker_covers_like_eprocess () =
  (* On a cycle, one walker must tour deterministically: n - 1 steps to
     vertex cover. *)
  let n = 15 in
  let g = Gen_classic.cycle n in
  let rng = Rng.create ~seed:1 () in
  let t = Engine.create Engine.E_uar g rng ~starts:[| 0 |] in
  Alcotest.(check (option int)) "cycle tour" (Some (n - 1))
    (Cover.run_until_vertex_cover (Engine.process t))

let team_counts_rounds () =
  let g = Gen_classic.torus2d 4 4 in
  let rng = Rng.create ~seed:2 () in
  let t = Engine.create Engine.E_uar g rng ~starts:[| 0; 5; 10 |] in
  Alcotest.(check int) "3 walkers" 3 (Engine.walkers t);
  Engine.step_round t;
  Alcotest.(check int) "one round" 1 (Engine.rounds t);
  Alcotest.(check int) "3 steps" 3 (Engine.steps t);
  Alcotest.(check int) "positions array" 3 (Array.length (Engine.positions t))

let team_covers_even_graphs () =
  let rng = Rng.create ~seed:3 () in
  let g = Gen_regular.random_regular_connected rng 500 4 in
  List.iter
    (fun k ->
      let t = Engine.create_spread Engine.E_uar g rng ~walkers:k in
      match
        Cover.run_until_vertex_cover ~cap:(Cover.default_cap g)
          (Engine.process t)
      with
      | Some _ -> ()
      | None -> Alcotest.fail (Printf.sprintf "%d walkers capped" k))
    [ 1; 2; 4; 8 ]

let team_total_work_stays_linear () =
  (* Shared marks: the team's total work to cover stays O(n), independent of
     the walker count (the marks are consumed once whoever visits them). *)
  let rng = Rng.create ~seed:4 () in
  let n = 2_000 in
  let g = Gen_regular.random_regular_connected rng n 4 in
  List.iter
    (fun k ->
      let t = Engine.create_spread Engine.E_uar g rng ~walkers:k in
      match
        Cover.run_until_vertex_cover ~cap:(Cover.default_cap g)
          (Engine.process t)
      with
      | Some steps ->
          Alcotest.(check bool)
            (Printf.sprintf "%d walkers: %d steps <= 5n" k steps)
            true
            (steps <= 5 * n)
      | None -> Alcotest.fail "capped")
    [ 1; 4; 16 ]

let team_edge_marks_shared () =
  (* Once every edge is covered the blue steps across all walkers total m:
     no edge is claimed twice. *)
  let rng = Rng.create ~seed:5 () in
  let g = Gen_regular.random_regular_connected rng 300 4 in
  let t = Engine.create_spread Engine.E_uar g rng ~walkers:4 in
  match
    Cover.run_until_edge_cover ~cap:(Cover.default_cap g) (Engine.process t)
  with
  | None -> Alcotest.fail "capped"
  | Some _ ->
      let cov = Engine.coverage t in
      Alcotest.(check bool) "all edges visited" true
        (Coverage.all_edges_visited cov)

let prop_team_covers =
  QCheck.Test.make ~name:"team covers connected even graphs for any k"
    ~count:30
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, k) ->
      let rng = Rng.create ~seed () in
      let g = Gen_regular.cycle_union rng 20 2 in
      let t = Engine.create_spread Engine.E_uar g rng ~walkers:k in
      Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) (Engine.process t)
      <> None)

let () =
  Alcotest.run "team"
    [
      ( "unvisited",
        [
          Alcotest.test_case "initial" `Quick unvisited_initial;
          Alcotest.test_case "retire" `Quick unvisited_retire;
          Alcotest.test_case "self loop" `Quick unvisited_self_loop;
          Alcotest.test_case "slot with edge" `Quick unvisited_slot_with_edge;
        ] );
      ( "team",
        [
          Alcotest.test_case "validation" `Quick team_validation;
          Alcotest.test_case "single walker tour" `Quick
            team_single_walker_covers_like_eprocess;
          Alcotest.test_case "rounds" `Quick team_counts_rounds;
          Alcotest.test_case "covers" `Quick team_covers_even_graphs;
          Alcotest.test_case "linear total work" `Quick
            team_total_work_stays_linear;
          Alcotest.test_case "shared marks" `Quick team_edge_marks_shared;
        ] );
      ("properties", [ qcheck prop_team_covers ]);
    ]
