(* Tests for the graph generators: classic families, random models, the
   regular/configuration generators and the explicit expanders. *)

module Graph = Ewalk_graph.Graph
module Traversal = Ewalk_graph.Traversal
module Girth = Ewalk_graph.Girth
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_random = Ewalk_graph.Gen_random
module Gen_regular = Ewalk_graph.Gen_regular
module Gen_expander = Ewalk_graph.Gen_expander
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* -- classic families ------------------------------------------------------ *)

let classic_cycle () =
  let g = Gen_classic.cycle 8 in
  Alcotest.(check int) "n" 8 (Graph.n g);
  Alcotest.(check int) "m" 8 (Graph.m g);
  Alcotest.(check bool) "2-regular" true
    (Graph.is_regular g && Graph.max_degree g = 2);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.check_raises "too small" (Invalid_argument "Gen_classic.cycle: n < 3")
    (fun () -> ignore (Gen_classic.cycle 2))

let classic_path_star () =
  let p = Gen_classic.path 6 in
  Alcotest.(check int) "path edges" 5 (Graph.m p);
  Alcotest.(check bool) "path connected" true (Traversal.is_connected p);
  let s = Gen_classic.star 6 in
  Alcotest.(check int) "star hub" 5 (Graph.degree s 0);
  Alcotest.(check int) "star m" 5 (Graph.m s)

let classic_complete () =
  let g = Gen_classic.complete 6 in
  Alcotest.(check int) "m = n(n-1)/2" 15 (Graph.m g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "5-regular" true
    (Graph.is_regular g && Graph.max_degree g = 5)

let classic_complete_bipartite () =
  let g = Gen_classic.complete_bipartite 3 4 in
  Alcotest.(check int) "m = ab" 12 (Graph.m g);
  Alcotest.(check bool) "bipartite" true (Traversal.is_bipartite g);
  Alcotest.(check int) "left degree" 4 (Graph.degree g 0);
  Alcotest.(check int) "right degree" 3 (Graph.degree g 3)

let classic_hypercube () =
  let g = Gen_classic.hypercube 5 in
  Alcotest.(check int) "n = 2^5" 32 (Graph.n g);
  Alcotest.(check int) "m = r 2^(r-1)" 80 (Graph.m g);
  Alcotest.(check bool) "5-regular" true
    (Graph.is_regular g && Graph.max_degree g = 5);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "bipartite" true (Traversal.is_bipartite g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let classic_torus () =
  let g = Gen_classic.torus2d 4 5 in
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check bool) "4-regular" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check bool) "even degree" true (Graph.all_degrees_even g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.check_raises "side < 3"
    (Invalid_argument "Gen_classic.torus2d: sides < 3") (fun () ->
      ignore (Gen_classic.torus2d 2 5))

let classic_grid () =
  let g = Gen_classic.grid2d 3 4 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  (* 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8 *)
  Alcotest.(check int) "m" 17 (Graph.m g);
  Alcotest.(check int) "corner degree" 2 (Graph.degree g 0)

let classic_binary_tree () =
  let g = Gen_classic.binary_tree 3 in
  Alcotest.(check int) "n = 2^4 - 1" 15 (Graph.n g);
  Alcotest.(check int) "m = n - 1" 14 (Graph.m g);
  Alcotest.(check bool) "acyclic" true (Girth.girth g = None)

let classic_lollipop_barbell () =
  let l = Gen_classic.lollipop 5 3 in
  Alcotest.(check int) "lollipop n" 8 (Graph.n l);
  Alcotest.(check int) "lollipop m" 13 (Graph.m l);
  Alcotest.(check bool) "lollipop connected" true (Traversal.is_connected l);
  let b = Gen_classic.barbell 4 2 in
  Alcotest.(check int) "barbell n" 10 (Graph.n b);
  Alcotest.(check bool) "barbell connected" true (Traversal.is_connected b);
  Alcotest.(check int) "barbell m" 15 (Graph.m b)

let classic_petersen () =
  let g = Gen_classic.petersen () in
  Alcotest.(check int) "n" 10 (Graph.n g);
  Alcotest.(check int) "m" 15 (Graph.m g);
  Alcotest.(check bool) "3-regular" true
    (Graph.is_regular g && Graph.max_degree g = 3);
  Alcotest.(check (option int)) "girth 5" (Some 5) (Girth.girth g);
  Alcotest.(check int) "diameter 2" 2 (Traversal.diameter g)

let classic_double_cycle () =
  let g = Gen_classic.double_cycle 5 in
  Alcotest.(check int) "m doubled" 10 (Graph.m g);
  Alcotest.(check bool) "4-regular even" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check int) "parallel pairs" 5 (Graph.count_parallel_edges g)

(* -- random models ---------------------------------------------------------- *)

let gnp_extremes () =
  let rng = Rng.create ~seed:1 () in
  let empty = Gen_random.gnp rng 10 0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.m empty);
  let full = Gen_random.gnp rng 10 1.0 in
  Alcotest.(check int) "p=1 complete" 45 (Graph.m full);
  Alcotest.check_raises "bad p"
    (Invalid_argument "Gen_random.gnp: p out of [0,1]") (fun () ->
      ignore (Gen_random.gnp rng 5 1.5))

let gnp_edge_count () =
  let rng = Rng.create ~seed:2 () in
  let n = 500 and p = 0.02 in
  let expected = float_of_int (n * (n - 1) / 2) *. p in
  let total = ref 0 in
  let trials = 20 in
  for _ = 1 to trials do
    total := !total + Graph.m (Gen_random.gnp rng n p)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.0f ~ %.0f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.1 *. expected);
  Alcotest.(check bool) "simple" true
    (Graph.is_simple (Gen_random.gnp rng 100 0.05))

let gnm_exact () =
  let rng = Rng.create ~seed:3 () in
  let g = Gen_random.gnm rng 30 50 in
  Alcotest.(check int) "exact m" 50 (Graph.m g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.check_raises "too many"
    (Invalid_argument "Gen_random.gnm: too many edges") (fun () ->
      ignore (Gen_random.gnm rng 4 7))

let geometric_radius () =
  let rng = Rng.create ~seed:4 () in
  let g0 = Gen_random.random_geometric rng 50 0.0 in
  Alcotest.(check int) "radius 0" 0 (Graph.m g0);
  let g_all = Gen_random.random_geometric rng 30 2.0 in
  Alcotest.(check int) "radius sqrt2 covers square" 435 (Graph.m g_all);
  let g = Gen_random.random_geometric rng 200 0.1 in
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let geometric_matches_bruteforce () =
  (* The grid-bucketed generator must agree with the O(n^2) definition. *)
  let rng = Rng.create ~seed:5 () in
  let g = Gen_random.random_geometric rng 100 0.17 in
  (* Rebuild by brute force using the same points is impossible from the
     outside; instead check the triangle inequality implication: neighbours
     of neighbours at distance <= 2r. Weak but structural. *)
  Alcotest.(check bool) "not absurdly dense" true
    (Graph.m g < 100 * 99 / 2);
  Graph.iter_edges g (fun _ u v ->
      Alcotest.(check bool) "no self loop" true (u <> v))

(* -- regular generators ----------------------------------------------------- *)

let pairing_multigraph_test () =
  let rng = Rng.create ~seed:6 () in
  let g = Gen_regular.pairing_multigraph rng 100 3 in
  Alcotest.(check bool) "3-regular (with multiplicity)" true
    (Graph.is_regular g && Graph.max_degree g = 3);
  Alcotest.check_raises "odd total"
    (Invalid_argument "Gen_regular: odd degree sum") (fun () ->
      ignore (Gen_regular.pairing_multigraph rng 3 3))

let random_regular_simple () =
  let rng = Rng.create ~seed:7 () in
  List.iter
    (fun (n, r) ->
      let g = Gen_regular.random_regular rng n r in
      Alcotest.(check bool)
        (Printf.sprintf "r=%d regular" r)
        true
        (Graph.is_regular g && Graph.max_degree g = r);
      Alcotest.(check bool) "simple" true (Graph.is_simple g))
    [ (50, 3); (50, 4); (100, 7); (60, 16) ]

let random_regular_rejection_test () =
  let rng = Rng.create ~seed:8 () in
  let g = Gen_regular.random_regular_rejection rng 60 3 in
  Alcotest.(check bool) "simple regular" true
    (Graph.is_simple g && Graph.is_regular g && Graph.max_degree g = 3)

let random_regular_validation () =
  let rng = Rng.create ~seed:9 () in
  Alcotest.check_raises "odd n*r"
    (Invalid_argument "Gen_regular.random_regular: n * r is odd") (fun () ->
      ignore (Gen_regular.random_regular rng 5 3));
  Alcotest.check_raises "r >= n"
    (Invalid_argument "Gen_regular.random_regular: r >= n has no simple graph")
    (fun () -> ignore (Gen_regular.random_regular rng 4 4))

let random_regular_connected_test () =
  let rng = Rng.create ~seed:10 () in
  for _ = 1 to 5 do
    let g = Gen_regular.random_regular_connected rng 80 4 in
    Alcotest.(check bool) "connected" true (Traversal.is_connected g)
  done

let configuration_model_test () =
  let rng = Rng.create ~seed:11 () in
  let degrees = [| 4; 4; 2; 2; 4; 4; 2; 2 |] in
  let g = Gen_regular.configuration_model rng degrees in
  Alcotest.(check (array int)) "degree sequence realised" degrees
    (Graph.degrees g);
  let gs = Gen_regular.configuration_model ~simple:true rng degrees in
  Alcotest.(check bool) "simple option" true (Graph.is_simple gs);
  Alcotest.(check (array int)) "simple keeps degrees" degrees
    (Graph.degrees gs);
  Alcotest.check_raises "odd sum"
    (Invalid_argument "Gen_regular.configuration_model: odd degree sum")
    (fun () ->
      ignore (Gen_regular.configuration_model rng [| 1; 2 |]))

let cycle_union_test () =
  let rng = Rng.create ~seed:12 () in
  let g = Gen_regular.cycle_union rng 40 2 in
  Alcotest.(check bool) "4-regular" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check bool) "even" true (Graph.all_degrees_even g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "connected by construction" true
    (Traversal.is_connected g)

(* -- expanders --------------------------------------------------------------- *)

let margulis_test () =
  let g = Gen_expander.margulis 7 in
  Alcotest.(check int) "n = k^2" 49 (Graph.n g);
  Alcotest.(check bool) "8-regular" true
    (Graph.is_regular g && Graph.max_degree g = 8);
  Alcotest.(check bool) "even degree" true (Graph.all_degrees_even g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* Known spectral property: adjacency lambda_2 <= 5 sqrt 2 < 8 means the
     walk gap is at least 1 - 5 sqrt 2 / 8 ~ 0.116. *)
  let gap = Ewalk_spectral.Spectral.gap_exact g in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.3f > 0.1" gap.Ewalk_spectral.Spectral.gap)
    true
    (gap.Ewalk_spectral.Spectral.gap > 0.1)

let circulant_test () =
  let g = Gen_expander.circulant 12 [ 1; 3 ] in
  Alcotest.(check bool) "4-regular" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.check_raises "offset too large"
    (Invalid_argument "Gen_expander.circulant: offset out of range") (fun () ->
      ignore (Gen_expander.circulant 12 [ 6 ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Gen_expander.circulant: duplicate offset") (fun () ->
      ignore (Gen_expander.circulant 12 [ 2; 2 ]))

let chordal_cycle_test () =
  let g = Gen_expander.chordal_cycle 11 in
  Alcotest.(check int) "n" 11 (Graph.n g);
  Alcotest.(check bool) "even degree 4" true
    (Graph.all_degrees_even g && Graph.max_degree g = 4);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "one self loop at 0" 1 (Graph.count_self_loops g)

(* -- distribution sanity ------------------------------------------------------ *)

let steger_wormald_unbiased_smoke () =
  (* On n=6, r=2 the simple 2-regular graphs are unions of cycles: either a
     6-cycle, a 3+3 split, or... with labelled vertices the generator should
     produce both a single hexagon and two triangles with substantial
     probability. *)
  let rng = Rng.create ~seed:13 () in
  let hexagons = ref 0 and double_triangles = ref 0 in
  for _ = 1 to 300 do
    let g = Gen_regular.random_regular rng 6 2 in
    if Traversal.is_connected g then incr hexagons else incr double_triangles
  done;
  Alcotest.(check bool) "sees hexagons" true (!hexagons > 30);
  Alcotest.(check bool) "sees disconnected shapes" true (!double_triangles > 10)

let prop_random_regular_invariants =
  QCheck.Test.make ~name:"random_regular always simple and regular" ~count:60
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, r) ->
      let n = 20 + (2 * r) in
      let n = if n * r mod 2 = 1 then n + 1 else n in
      let rng = Rng.create ~seed () in
      let g = Gen_regular.random_regular rng n r in
      Graph.is_simple g && Graph.is_regular g && Graph.max_degree g = r)

let prop_cycle_union_even =
  QCheck.Test.make ~name:"cycle_union is 2r-regular and connected" ~count:40
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, r) ->
      let rng = Rng.create ~seed () in
      let g = Gen_regular.cycle_union rng 20 r in
      Graph.is_regular g
      && Graph.max_degree g = 2 * r
      && Traversal.is_connected g)

(* Slot-for-slot equality through the public accessors: row bounds,
   every slot's (neighbour, edge), every edge's endpoints and slots. *)
let same_layout g h =
  let ok = ref (Graph.n g = Graph.n h && Graph.m g = Graph.m h) in
  if !ok then begin
    for v = 0 to Graph.n g - 1 do
      if Graph.adj_start g v <> Graph.adj_start h v
         || Graph.adj_stop g v <> Graph.adj_stop h v
      then ok := false
    done;
    for p = 0 to (2 * Graph.m g) - 1 do
      if Graph.slot_vertex g p <> Graph.slot_vertex h p
         || Graph.slot_edge g p <> Graph.slot_edge h p
      then ok := false
    done;
    for e = 0 to Graph.m g - 1 do
      if Graph.endpoints g e <> Graph.endpoints h e
         || Graph.edge_slot g e 0 <> Graph.edge_slot h e 0
         || Graph.edge_slot g e 1 <> Graph.edge_slot h e 1
      then ok := false
    done
  end;
  !ok

(* Every generator, at sizes where the regular ones restart often. *)
let generators =
  [|
    (fun rng -> Gen_regular.random_regular_connected rng 24 3);
    (fun rng -> Gen_regular.random_regular_connected rng 12 7);
    (fun rng -> Gen_regular.random_regular rng 10 7);
    (fun rng -> Gen_regular.random_regular rng 30 4);
    (fun rng -> Gen_regular.random_regular rng 6 2);
    (fun rng -> Gen_regular.random_regular_rejection rng 20 3);
    (fun rng -> Gen_regular.pairing_multigraph rng 20 4);
    (fun rng -> Gen_regular.configuration_model rng [| 3; 1; 2; 4; 2 |]);
    (fun rng -> Gen_regular.cycle_union rng 9 1);
    (fun rng -> Gen_regular.cycle_union rng 12 3);
    (fun rng -> Gen_random.gnp rng 40 0.1);
    (fun rng -> Gen_random.gnm rng 30 60);
    (fun rng -> Gen_random.random_geometric rng 40 0.2);
    (fun _ -> Gen_expander.margulis 6);
  |]

let prop_rebuild_identical =
  QCheck.Test.make ~name:"generated graph = its edge-array rebuild" ~count:200
    QCheck.(pair small_int (int_range 0 (Array.length generators - 1)))
    (fun (seed, k) ->
      let g = generators.(k) (Rng.create ~seed ()) in
      same_layout g (Graph.of_edge_array ~n:(Graph.n g) (Graph.edge_array g)))

(* Every slot's twin is the other slot of its edge, in the row of the
   slot's neighbour (its own row for a loop); every edge's arc 0 lies in
   its first endpoint's row and stores the second, and arc 1 is arc 0's
   twin. *)
let twins_consistent g =
  let ok = ref true in
  let in_row v p = Graph.adj_start g v <= p && p < Graph.adj_stop g v in
  for p = 0 to (2 * Graph.m g) - 1 do
    let q = Graph.slot_twin g p in
    if Graph.slot_twin g q <> p || q = p
       || Graph.slot_edge g q <> Graph.slot_edge g p
       || not (in_row (Graph.slot_vertex g p) q)
    then ok := false
  done;
  for e = 0 to Graph.m g - 1 do
    let a = Graph.edge_slot g e 0 and u, v = Graph.endpoints g e in
    if Graph.edge_slot g e 1 <> Graph.slot_twin g a
       || (not (in_row u a))
       || Graph.slot_vertex g a <> v
       || Graph.slot_edge g a <> e
    then ok := false
  done;
  !ok

let prop_twins_generated =
  QCheck.Test.make ~name:"slot twins and arc-0 slots of every generator" ~count:200
    QCheck.(pair small_int (int_range 0 (Array.length generators - 1)))
    (fun (seed, k) -> twins_consistent (generators.(k) (Rng.create ~seed ())))

(* Few vertices, so loops and parallel edges are common. *)
let prop_twins_multigraph =
  QCheck.Test.make ~name:"slot twins and arc-0 slots of multigraphs" ~count:300
    QCheck.(pair (int_range 1 6) (small_list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let edges = Array.of_list (List.map (fun (u, v) -> (u mod n, v mod n)) pairs) in
      let g = Graph.of_edge_array ~n edges in
      twins_consistent g && Graph.edge_array g = edges)

let () =
  Alcotest.run "gen"
    [
      ( "classic",
        [
          Alcotest.test_case "cycle" `Quick classic_cycle;
          Alcotest.test_case "path/star" `Quick classic_path_star;
          Alcotest.test_case "complete" `Quick classic_complete;
          Alcotest.test_case "complete bipartite" `Quick
            classic_complete_bipartite;
          Alcotest.test_case "hypercube" `Quick classic_hypercube;
          Alcotest.test_case "torus" `Quick classic_torus;
          Alcotest.test_case "grid" `Quick classic_grid;
          Alcotest.test_case "binary tree" `Quick classic_binary_tree;
          Alcotest.test_case "lollipop/barbell" `Quick
            classic_lollipop_barbell;
          Alcotest.test_case "petersen" `Quick classic_petersen;
          Alcotest.test_case "double cycle" `Quick classic_double_cycle;
        ] );
      ( "random",
        [
          Alcotest.test_case "gnp extremes" `Quick gnp_extremes;
          Alcotest.test_case "gnp edge count" `Quick gnp_edge_count;
          Alcotest.test_case "gnm exact" `Quick gnm_exact;
          Alcotest.test_case "geometric radius" `Quick geometric_radius;
          Alcotest.test_case "geometric structure" `Quick
            geometric_matches_bruteforce;
        ] );
      ( "regular",
        [
          Alcotest.test_case "pairing multigraph" `Quick
            pairing_multigraph_test;
          Alcotest.test_case "steger-wormald simple" `Quick
            random_regular_simple;
          Alcotest.test_case "rejection sampler" `Quick
            random_regular_rejection_test;
          Alcotest.test_case "validation" `Quick random_regular_validation;
          Alcotest.test_case "connected variant" `Quick
            random_regular_connected_test;
          Alcotest.test_case "configuration model" `Quick
            configuration_model_test;
          Alcotest.test_case "cycle union" `Quick cycle_union_test;
          Alcotest.test_case "distribution smoke" `Quick
            steger_wormald_unbiased_smoke;
        ] );
      ( "expanders",
        [
          Alcotest.test_case "margulis" `Quick margulis_test;
          Alcotest.test_case "circulant" `Quick circulant_test;
          Alcotest.test_case "chordal cycle" `Quick chordal_cycle_test;
        ] );
      ( "properties",
        [
          qcheck prop_random_regular_invariants;
          qcheck prop_cycle_union_even;
          qcheck prop_rebuild_identical;
          qcheck prop_twins_generated;
          qcheck prop_twins_multigraph;
        ] );
    ]
