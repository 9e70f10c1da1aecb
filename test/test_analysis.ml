(* Tests for Ewalk_analysis: statistics, fitting, blue-subgraph analysis,
   ell-goodness and subgraph density. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Stats = Ewalk_analysis.Stats
module Fit = Ewalk_analysis.Fit
module Blue = Ewalk_analysis.Blue
module Goodness = Ewalk_analysis.Goodness
module Density = Ewalk_analysis.Subgraph_density
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest
let closef tol msg a b = Alcotest.(check (float tol)) msg a b

(* -- Stats -------------------------------------------------------------------- *)

let stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  closef 1e-12 "mean" 3.0 s.Stats.mean;
  closef 1e-12 "std" (sqrt 2.5) s.Stats.std;
  closef 1e-12 "median" 3.0 s.Stats.median;
  closef 1e-12 "min" 1.0 s.Stats.min;
  closef 1e-12 "max" 5.0 s.Stats.max;
  Alcotest.(check int) "count" 5 s.Stats.count;
  closef 1e-12 "stderr" (sqrt 2.5 /. sqrt 5.0) s.Stats.stderr

let stats_singleton () =
  let s = Stats.summarize [| 7.0 |] in
  closef 1e-12 "mean" 7.0 s.Stats.mean;
  closef 1e-12 "std 0" 0.0 s.Stats.std;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize [||]))

let stats_quantile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  closef 1e-12 "q0" 1.0 (Stats.quantile xs 0.0);
  closef 1e-12 "q1" 4.0 (Stats.quantile xs 1.0);
  closef 1e-12 "median interpolated" 2.5 (Stats.median xs);
  Alcotest.check_raises "bad q"
    (Invalid_argument "Stats.quantile: q out of [0,1]") (fun () ->
      ignore (Stats.quantile xs 1.5))

let stats_confidence () =
  let lo, hi = Stats.confidence_95 [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "contains mean" true (lo < 2.0 && 2.0 < hi)

let stats_ints () =
  let s = Stats.summarize_ints [| 1; 2; 3 |] in
  closef 1e-12 "int mean" 2.0 s.Stats.mean

let online_matches_batch () =
  let rng = Rng.create ~seed:1 () in
  let xs = Array.init 1000 (fun _ -> Rng.float rng 10.0) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  closef 1e-9 "mean" (Stats.mean xs) (Stats.Online.mean o);
  closef 1e-6 "variance" (Stats.variance xs) (Stats.Online.variance o);
  Alcotest.(check int) "count" 1000 (Stats.Online.count o)

(* -- Fit ---------------------------------------------------------------------- *)

let fit_affine_exact () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> 2.0 +. (3.0 *. x)) xs in
  let f = Fit.affine xs ys in
  closef 1e-9 "intercept" 2.0 f.Fit.intercept;
  closef 1e-9 "slope" 3.0 f.Fit.slope;
  closef 1e-9 "r2" 1.0 f.Fit.r_squared

let fit_affine_validation () =
  Alcotest.check_raises "too few" (Invalid_argument "Fit: need at least 2 points")
    (fun () -> ignore (Fit.affine [| 1.0 |] [| 1.0 |]));
  Alcotest.check_raises "degenerate"
    (Invalid_argument "Fit.affine: degenerate xs") (fun () ->
      ignore (Fit.affine [| 2.0; 2.0 |] [| 1.0; 2.0 |]))

let fit_scale_nlogn () =
  let ns = [| 1000.0; 5000.0; 20000.0; 80000.0 |] in
  let ys = Array.map (fun n -> 0.93 *. n *. log n) ns in
  let f = Fit.scale_n_log_n ns ys in
  closef 1e-9 "recovers paper constant" 0.93 f.Fit.c;
  closef 1e-9 "perfect fit" 1.0 f.Fit.r_squared;
  closef 1e-9 "exact data: zero standard error" 0.0 f.Fit.se

let fit_scale_linear () =
  let ns = [| 100.0; 200.0; 400.0 |] in
  let ys = Array.map (fun n -> 1.98 *. n) ns in
  let f = Fit.scale_linear ns ys in
  closef 1e-9 "slope" 1.98 f.Fit.c;
  closef 1e-9 "r2" 1.0 f.Fit.r_squared;
  closef 1e-9 "exact data: zero standard error" 0.0 f.Fit.se

(* By hand: y = c x through (1,2), (2,4), (3,7) gives c = 31/14, residuals
   -3/14, -6/14, 5/14 (sum of squares 5/14), so
   se = sqrt (5/14 / 2 / 14) = sqrt (5/392). *)
let fit_scale_standard_error () =
  let f = Fit.scale_linear [| 1.0; 2.0; 3.0 |] [| 2.0; 4.0; 7.0 |] in
  closef 1e-12 "c" (31.0 /. 14.0) f.Fit.c;
  closef 1e-12 "se" (sqrt (5.0 /. 392.0)) f.Fit.se

let fit_affine_log () =
  let ns = [| 100.0; 1000.0; 10000.0 |] in
  let ys = Array.map (fun n -> 1.5 +. (0.4 *. log n)) ns in
  let f = Fit.affine_log_x ns ys in
  closef 1e-9 "a" 1.5 f.Fit.intercept;
  closef 1e-9 "b" 0.4 f.Fit.slope

let fit_r_squared_of_model () =
  let xs = [| 1.0; 2.0; 3.0 |] in
  let ys = [| 2.0; 4.0; 6.0 |] in
  closef 1e-9 "exact model" 1.0 (Fit.r_squared_of (fun x -> 2.0 *. x) xs ys);
  Alcotest.(check bool) "bad model below" true
    (Fit.r_squared_of (fun _ -> 0.0) xs ys < 0.0)

(* -- Blue --------------------------------------------------------------------- *)

(* A hand-built scenario: 6-vertex graph, some edges visited. *)
let blue_fixture () =
  (* Triangle 0-1-2 (blue), star edges 3-4, 3-5 (blue), bridge 2-3
     (visited). *)
  let g =
    Graph.of_edges ~n:6
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (3, 5) ]
  in
  let visited = [| false; false; false; true; false; false |] in
  (g, visited)

let blue_degree_test () =
  let g, visited = blue_fixture () in
  Alcotest.(check int) "triangle vertex" 2 (Blue.blue_degree g ~visited 0);
  Alcotest.(check int) "bridge endpoint" 2 (Blue.blue_degree g ~visited 2);
  Alcotest.(check int) "star centre" 2 (Blue.blue_degree g ~visited 3);
  Alcotest.(check int) "leaf" 1 (Blue.blue_degree g ~visited 4)

let blue_components_test () =
  let g, visited = blue_fixture () in
  let comps = Blue.components g ~visited in
  Alcotest.(check int) "two components" 2 (List.length comps);
  let sizes =
    List.sort compare
      (List.map (fun c -> Array.length c.Blue.vertices) comps)
  in
  Alcotest.(check (list int)) "component sizes" [ 3; 3 ] sizes;
  let edge_counts =
    List.sort compare (List.map (fun c -> Array.length c.Blue.edges) comps)
  in
  Alcotest.(check (list int)) "edges" [ 2; 3 ] edge_counts

let blue_component_of_vertex_test () =
  let g, visited = blue_fixture () in
  (match Blue.component_of_vertex g ~visited 4 with
  | Some c ->
      Alcotest.(check (array int)) "star component" [| 3; 4; 5 |]
        c.Blue.vertices
  | None -> Alcotest.fail "vertex 4 has blue edges");
  (* A vertex whose edges are all red has no component: make one. *)
  let all_visited = Array.map (fun _ -> true) visited in
  Alcotest.(check bool) "all red -> none" true
    (Blue.component_of_vertex g ~visited:all_visited 0 = None)

let blue_star_detection () =
  let g, visited = blue_fixture () in
  let comps = Blue.components g ~visited in
  let stars = List.filter (fun c -> Blue.star_center g c <> None) comps in
  Alcotest.(check int) "one star (3;4,5)" 1 (List.length stars);
  (match stars with
  | [ c ] ->
      Alcotest.(check (option int)) "centre is 3" (Some 3)
        (Blue.star_center g c)
  | _ -> Alcotest.fail "expected one star");
  let s, total = Blue.star_census g ~visited in
  Alcotest.(check (pair int int)) "census" (1, 2) (s, total)

let blue_even_degrees_test () =
  let g, visited = blue_fixture () in
  (* Vertex 4 has odd blue degree 1. *)
  Alcotest.(check bool) "odd present" false (Blue.all_blue_degrees_even g ~visited);
  let none_visited = Array.map (fun _ -> false) visited in
  (* With nothing visited, blue degree = degree: vertex 3 has degree 3 -
     odd. *)
  Alcotest.(check bool) "star centre odd" false
    (Blue.all_blue_degrees_even g ~visited:none_visited);
  let cycle = Gen_classic.cycle 5 in
  Alcotest.(check bool) "cycle all even" true
    (Blue.all_blue_degrees_even cycle ~visited:(Array.make 5 false))

let blue_flag_length_check () =
  let g, _ = blue_fixture () in
  Alcotest.check_raises "bad flags"
    (Invalid_argument "Blue: visited array length <> m") (fun () ->
      ignore (Blue.components g ~visited:[| true |]))

(* -- Goodness ------------------------------------------------------------------ *)

let ell_cycle () =
  let n = 9 in
  let g = Gen_classic.cycle n in
  (* Search radius below n: certified lower bound only. *)
  let b = Goodness.ell_of_vertex g 0 ~max_len:5 in
  Alcotest.(check int) "lower = max_len + 1" 6 b.Goodness.lower;
  Alcotest.(check (option int)) "no witness" None b.Goodness.witness;
  (* Search radius at n: exact. *)
  let b = Goodness.ell_of_vertex g 0 ~max_len:n in
  Alcotest.(check int) "exact" n b.Goodness.lower;
  Alcotest.(check (option int)) "witness is the cycle" (Some n)
    b.Goodness.witness

let ell_double_cycle () =
  (* Two parallel 2-cycles at each vertex: the witness is both digons:
     3 vertices. *)
  let g = Gen_classic.double_cycle 8 in
  let b = Goodness.ell_of_vertex g 0 ~max_len:4 in
  Alcotest.(check int) "ell = 3" 3 b.Goodness.lower;
  Alcotest.(check (option int)) "witness 3" (Some 3) b.Goodness.witness

let ell_complete_k5 () =
  (* K5 is 4-regular; minimal witness is two triangles sharing only v:
     5 vertices. *)
  let g = Gen_classic.complete 5 in
  let b = Goodness.ell_of_vertex g 0 ~max_len:5 in
  Alcotest.(check int) "ell(K5) = 5" 5 b.Goodness.lower;
  Alcotest.(check (option int)) "witness" (Some 5) b.Goodness.witness

let ell_torus () =
  (* On a torus the minimal even subgraph through v is two 4-cycles sharing
     v: 7 vertices. *)
  let g = Gen_classic.torus2d 5 5 in
  let b = Goodness.ell_of_vertex g 0 ~max_len:8 in
  Alcotest.(check int) "ell(torus) = 7" 7 b.Goodness.lower;
  Alcotest.(check (option int)) "witness" (Some 7) b.Goodness.witness

let ell_good_graph () =
  Alcotest.(check bool) "torus is 7-good" true
    (Goodness.ell_good (Gen_classic.torus2d 5 5) ~ell:7);
  Alcotest.(check bool) "torus is not 8-good" false
    (Goodness.ell_good (Gen_classic.torus2d 5 5) ~ell:8);
  Alcotest.check_raises "odd degree rejected"
    (Invalid_argument "Goodness.ell_good: graph has a vertex of odd degree")
    (fun () -> ignore (Goodness.ell_good (Gen_classic.petersen ()) ~ell:3))

let ell_validation () =
  let g = Gen_classic.petersen () in
  Alcotest.check_raises "odd vertex"
    (Invalid_argument "Goodness.ell_of_vertex: vertex of odd degree")
    (fun () -> ignore (Goodness.ell_of_vertex g 0 ~max_len:5));
  Alcotest.check_raises "isolated"
    (Invalid_argument "Goodness.ell_of_vertex: isolated vertex") (fun () ->
      ignore
        (Goodness.ell_of_vertex (Graph.of_edges ~n:1 []) 0 ~max_len:3))

let ell_p2_bound () =
  let g = Gen_regular.random_regular (Rng.create ~seed:2 ()) 100 4 in
  let b = Goodness.ell_lower_bound_p2 g in
  Alcotest.(check bool) "at least 1" true (b >= 1)

(* -- Subgraph density ------------------------------------------------------------ *)

let density_induced_count () =
  let g = Gen_classic.complete 5 in
  Alcotest.(check int) "K3 inside K5" 3
    (Density.induced_edge_count g [| 0; 1; 2 |]);
  Alcotest.(check int) "pair" 1 (Density.induced_edge_count g [| 0; 4 |]);
  let path = Gen_classic.path 5 in
  Alcotest.(check int) "non-adjacent pair" 0
    (Density.induced_edge_count path [| 0; 4 |])

let density_connected_set () =
  let g = Gen_classic.torus2d 5 5 in
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 20 do
    match Density.random_connected_set rng g ~s:6 with
    | None -> Alcotest.fail "torus has plenty of connected 6-sets"
    | Some vs ->
        Alcotest.(check int) "size" 6 (Array.length vs);
        (* Check connectivity of the induced subgraph. *)
        let sub, _ = Ewalk_graph.Subgraph.induced g (Array.to_list vs) in
        Alcotest.(check bool) "connected" true
          (Ewalk_graph.Traversal.is_connected sub)
  done

let density_component_too_small () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let rng = Rng.create ~seed:4 () in
  (* s=3 can never be grown: components have sizes 2, 1, 1. *)
  Alcotest.(check bool) "impossible size" true
    (Density.random_connected_set rng g ~s:3 = None)

let density_p2_audit () =
  let rng = Rng.create ~seed:5 () in
  let g = Gen_regular.random_regular_connected rng 400 4 in
  Alcotest.(check bool) "P2 holds on a random 4-regular" true
    (Density.p2_holds_sampled rng g ~s:5 ~samples:200);
  Alcotest.(check bool) "allowance non-negative" true
    (Density.p2_excess_allowance g ~s:5 >= 0)

let density_dense_counterexample () =
  (* On a clique, P2 must fail: a connected s-set induces s(s-1)/2 edges. *)
  let g = Gen_classic.complete 12 in
  let rng = Rng.create ~seed:6 () in
  let worst = Density.max_density_sampled rng g ~s:6 ~samples:50 in
  Alcotest.(check int) "clique density" 15 worst

(* -- properties -------------------------------------------------------------------- *)


(* -- Profile ------------------------------------------------------------------ *)

let profile_records_checkpoints () =
  let g = Gen_classic.cycle 40 in
  let rng = Rng.create ~seed:7 () in
  let t = Ewalk.Eprocess.create g rng ~start:0 in
  let profile =
    Ewalk_analysis.Profile.run ~checkpoint_every:10 (Ewalk.Eprocess.process t)
  in
  (* Deterministic tour: vertex cover at step 39. *)
  Alcotest.(check (option int)) "cover step" (Some 39)
    profile.Ewalk_analysis.Profile.cover_step;
  (* First point is the initial snapshot with 39 unvisited vertices. *)
  (match profile.Ewalk_analysis.Profile.points with
  | first :: _ ->
      Alcotest.(check int) "initial stragglers" 39
        first.Ewalk_analysis.Profile.unvisited_vertices;
      Alcotest.(check int) "initial step" 0 first.Ewalk_analysis.Profile.steps
  | [] -> Alcotest.fail "no points");
  (* Monotone decreasing unvisited counts. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Ewalk_analysis.Profile.unvisited_vertices
        >= b.Ewalk_analysis.Profile.unvisited_vertices
        && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true
    (monotone profile.Ewalk_analysis.Profile.points);
  (* stragglers_at finds the right checkpoint. *)
  (match Ewalk_analysis.Profile.stragglers_at profile ~steps:20 with
  | Some u -> Alcotest.(check int) "after 20 steps" 19 u
  | None -> Alcotest.fail "checkpoint at 20 must exist")

let profile_cap_respected () =
  let g = Gen_classic.cycle 100 in
  let rng = Rng.create ~seed:8 () in
  let t = Ewalk.Srw.create g rng ~start:0 in
  let profile =
    Ewalk_analysis.Profile.run ~cap:50 ~checkpoint_every:10
      (Ewalk.Srw.process t)
  in
  Alcotest.(check (option int)) "not covered" None
    profile.Ewalk_analysis.Profile.cover_step;
  Alcotest.(check int) "stopped at cap" 50 (Ewalk.Srw.steps t)

let profile_decay_rate_negative () =
  let rng = Rng.create ~seed:9 () in
  let g = Gen_regular.random_regular_connected rng 400 4 in
  let t = Ewalk.Srw.create g rng ~start:0 in
  let profile =
    Ewalk_analysis.Profile.run ~checkpoint_every:100 (Ewalk.Srw.process t)
  in
  match Ewalk_analysis.Profile.decay_rate profile ~n:400 with
  | Some r -> Alcotest.(check bool) "stragglers decay" true (r < 0.0)
  | None -> Alcotest.fail "enough checkpoints to fit"

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range 0.0 100.0))
    (fun l ->
      let xs = Array.of_list l in
      Stats.quantile xs 0.25 <= Stats.quantile xs 0.75)

let prop_fit_residual_free =
  QCheck.Test.make ~name:"affine fit is exact on affine data" ~count:200
    QCheck.(triple (float_range (-5.0) 5.0) (float_range (-5.0) 5.0) small_int)
    (fun (a, b, seed) ->
      let rng = Rng.create ~seed () in
      let xs = Array.init 10 (fun i -> float_of_int i +. Rng.float rng 0.5) in
      let ys = Array.map (fun x -> a +. (b *. x)) xs in
      let f = Fit.affine xs ys in
      Float.abs (f.Fit.intercept -. a) < 1e-6
      && Float.abs (f.Fit.slope -. b) < 1e-6)

let prop_blue_components_partition_edges =
  QCheck.Test.make ~name:"blue components partition the blue edges" ~count:100
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, percent) ->
      let rng = Rng.create ~seed () in
      let g = Gen_regular.cycle_union rng 12 2 in
      let visited =
        Array.init (Graph.m g) (fun _ -> Rng.int rng 100 < percent)
      in
      let comps = Blue.components g ~visited in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun c ->
          Array.iter
            (fun e ->
              if Hashtbl.mem seen e then failwith "edge in two components";
              Hashtbl.add seen e ())
            c.Blue.edges)
        comps;
      let blue_total =
        Array.fold_left (fun acc v -> if v then acc else acc + 1) 0 visited
      in
      Hashtbl.length seen = blue_total)

let () =
  Alcotest.run "analysis"
    [
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick stats_summary;
          Alcotest.test_case "singleton/empty" `Quick stats_singleton;
          Alcotest.test_case "quantile" `Quick stats_quantile;
          Alcotest.test_case "confidence" `Quick stats_confidence;
          Alcotest.test_case "ints" `Quick stats_ints;
          Alcotest.test_case "online matches batch" `Quick
            online_matches_batch;
        ] );
      ( "fit",
        [
          Alcotest.test_case "affine exact" `Quick fit_affine_exact;
          Alcotest.test_case "validation" `Quick fit_affine_validation;
          Alcotest.test_case "scale n log n" `Quick fit_scale_nlogn;
          Alcotest.test_case "scale linear" `Quick fit_scale_linear;
          Alcotest.test_case "scale standard error" `Quick
            fit_scale_standard_error;
          Alcotest.test_case "affine log x" `Quick fit_affine_log;
          Alcotest.test_case "r squared of" `Quick fit_r_squared_of_model;
        ] );
      ( "blue",
        [
          Alcotest.test_case "blue degree" `Quick blue_degree_test;
          Alcotest.test_case "components" `Quick blue_components_test;
          Alcotest.test_case "component of vertex" `Quick
            blue_component_of_vertex_test;
          Alcotest.test_case "star detection" `Quick blue_star_detection;
          Alcotest.test_case "even degrees" `Quick blue_even_degrees_test;
          Alcotest.test_case "flag length" `Quick blue_flag_length_check;
        ] );
      ( "goodness",
        [
          Alcotest.test_case "cycle" `Quick ell_cycle;
          Alcotest.test_case "double cycle" `Quick ell_double_cycle;
          Alcotest.test_case "K5" `Quick ell_complete_k5;
          Alcotest.test_case "torus" `Quick ell_torus;
          Alcotest.test_case "ell_good" `Quick ell_good_graph;
          Alcotest.test_case "validation" `Quick ell_validation;
          Alcotest.test_case "p2 bound" `Quick ell_p2_bound;
        ] );
      ( "profile",
        [
          Alcotest.test_case "checkpoints" `Quick profile_records_checkpoints;
          Alcotest.test_case "cap" `Quick profile_cap_respected;
          Alcotest.test_case "decay rate" `Quick profile_decay_rate_negative;
        ] );
      ( "density",
        [
          Alcotest.test_case "induced count" `Quick density_induced_count;
          Alcotest.test_case "connected set" `Quick density_connected_set;
          Alcotest.test_case "impossible size" `Quick
            density_component_too_small;
          Alcotest.test_case "p2 audit" `Quick density_p2_audit;
          Alcotest.test_case "clique counterexample" `Quick
            density_dense_counterexample;
        ] );
      ( "properties",
        [
          qcheck prop_quantile_monotone;
          qcheck prop_fit_residual_free;
          qcheck prop_blue_components_partition_edges;
        ] );
    ]
