(* Tests for the CSR graph core, the builder, traversals, girth machinery
   and subgraph operations. *)

module Graph = Ewalk_graph.Graph
module Builder = Ewalk_graph.Builder
module Traversal = Ewalk_graph.Traversal
module Girth = Ewalk_graph.Girth
module Subgraph = Ewalk_graph.Subgraph
module Gen_classic = Ewalk_graph.Gen_classic
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]

(* -- core construction ----------------------------------------------------- *)

let graph_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check int) "total degree" 6 (Graph.total_degree g);
  Alcotest.(check bool) "regular" true (Graph.is_regular g);
  Alcotest.(check bool) "even" true (Graph.all_degrees_even g)

let graph_degrees () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check int) "hub" 3 (Graph.degree g 0);
  Alcotest.(check int) "leaf" 1 (Graph.degree g 1);
  Alcotest.(check int) "max" 3 (Graph.max_degree g);
  Alcotest.(check int) "min" 1 (Graph.min_degree g);
  Alcotest.(check (array int)) "degrees" [| 3; 1; 1; 1 |] (Graph.degrees g);
  Alcotest.(check bool) "odd degrees" false (Graph.all_degrees_even g)

let graph_self_loop () =
  let g = Graph.of_edges ~n:2 [ (0, 0); (0, 1) ] in
  Alcotest.(check int) "loop adds 2" 3 (Graph.degree g 0);
  Alcotest.(check int) "loops counted" 1 (Graph.count_self_loops g);
  Alcotest.(check bool) "not simple" false (Graph.is_simple g);
  Alcotest.(check int) "opposite of loop" 0 (Graph.opposite g 0 0)

let graph_parallel_edges () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 1); (1, 0) ] in
  Alcotest.(check int) "parallel count" 2 (Graph.count_parallel_edges g);
  Alcotest.(check bool) "not simple" false (Graph.is_simple g);
  Alcotest.(check int) "degree counts multiplicity" 3 (Graph.degree g 0)

let graph_endpoints_opposite () =
  let g = triangle () in
  Alcotest.(check (pair int int)) "endpoints" (1, 2) (Graph.endpoints g 1);
  Alcotest.(check int) "opposite" 2 (Graph.opposite g 1 1);
  Alcotest.(check int) "opposite other side" 1 (Graph.opposite g 1 2);
  Alcotest.check_raises "not an endpoint"
    (Invalid_argument "Graph.opposite: vertex is not an endpoint") (fun () ->
      ignore (Graph.opposite g 1 0))

let graph_slots_consistent () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ] in
  (* Every edge's two slots carry the right neighbour and edge id. *)
  for e = 0 to Graph.m g - 1 do
    let u, v = Graph.endpoints g e in
    let p1 = Graph.edge_slot g e 0 and p2 = Graph.edge_slot g e 1 in
    Alcotest.(check int) "slot1 edge" e (Graph.slot_edge g p1);
    Alcotest.(check int) "slot2 edge" e (Graph.slot_edge g p2);
    Alcotest.(check int) "slot1 neighbour" v (Graph.slot_vertex g p1);
    Alcotest.(check int) "slot2 neighbour" u (Graph.slot_vertex g p2);
    Alcotest.(check bool) "p1 in u's adjacency" true
      (p1 >= Graph.adj_start g u && p1 < Graph.adj_stop g u);
    Alcotest.(check bool) "p2 in v's adjacency" true
      (p2 >= Graph.adj_start g v && p2 < Graph.adj_stop g v)
  done

let graph_neighbors () =
  let g = triangle () in
  Alcotest.(check (list int)) "neighbors of 0" [ 1; 2 ]
    (List.sort compare (Graph.neighbors g 0));
  Alcotest.(check int) "neighbor 0 0" (Graph.neighbor g 0 0)
    (Graph.slot_vertex g (Graph.adj_start g 0));
  let count = ref 0 in
  Graph.iter_neighbors g 0 (fun _ _ -> incr count);
  Alcotest.(check int) "iter count" 2 !count;
  let sum = Graph.fold_neighbors g 0 (fun acc w _ -> acc + w) 0 in
  Alcotest.(check int) "fold sum" 3 sum

let graph_edges_iteration () =
  let edges = [ (0, 1); (1, 2); (0, 2) ] in
  let g = Graph.of_edges ~n:3 edges in
  Alcotest.(check (list (pair int int))) "edge_list" edges (Graph.edge_list g);
  let total = Graph.fold_edges g (fun acc _ u v -> acc + u + v) 0 in
  Alcotest.(check int) "fold_edges" 6 total

let graph_mem_edge () =
  let g = triangle () in
  Alcotest.(check bool) "has 0-1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "has 1-0" true (Graph.mem_edge g 1 0);
  let g2 = Graph.of_edges ~n:4 [ (0, 1) ] in
  Alcotest.(check bool) "no 2-3" false (Graph.mem_edge g2 2 3)

let graph_validation () =
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Graph.of_edge_array: vertex out of range") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 2) ]));
  let empty = Graph.of_edges ~n:0 [] in
  Alcotest.(check int) "empty n" 0 (Graph.n empty);
  Alcotest.(check int) "empty min degree" 0 (Graph.min_degree empty)

(* Ids, slots and offsets are int32: sizes past 2^31 - 1 are refused
   before anything is allocated (these calls would need 16 GB and more),
   and an arc index other than 0 or 1 does not read a neighbouring
   edge's slot. *)
let graph_size_limits () =
  Alcotest.check_raises "n = 2^31"
    (Invalid_argument "Graph.of_edge_array: n or 2m exceeds 2^31 - 1") (fun () ->
      ignore (Graph.of_edge_array ~n:(1 lsl 31) [||]));
  Alcotest.check_raises "2m = 2^32"
    (Invalid_argument "Graph.Rows.create: n or 2m exceeds 2^31 - 1") (fun () ->
      ignore (Graph.Rows.create ~n:(1 lsl 30) ~width:4));
  Alcotest.check_raises "n * width past max_int"
    (Invalid_argument "Graph.Rows.create: n or 2m exceeds 2^31 - 1") (fun () ->
      ignore (Graph.Rows.create ~n:(1 lsl 40) ~width:(1 lsl 40)));
  let g = triangle () in
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "arc %d" i)
        (Invalid_argument "Graph.edge_slot: arc index is not 0 or 1") (fun () ->
          ignore (Graph.edge_slot g 0 i)))
    [ -1; 2 ]

(* The graph's heap size, pinned exactly: five int32 arrays, 4 (n + 1) +
   28 m bytes, plus one header word per array and the record.  A layout
   change shows here before any benchmark runs. *)
let graph_heap_words () =
  let words g = Obj.reachable_words (Obj.repr g) in
  let rng () = Rng.create ~seed:1 () in
  Alcotest.(check int) "random 4-regular, n = 10^4" 75018
    (words (Ewalk_graph.Gen_regular.random_regular_connected (rng ()) 10_000 4));
  Alcotest.(check int) "cycle_union r = 3, n = 1000" 11018
    (words (Ewalk_graph.Gen_regular.cycle_union (rng ()) 1000 3));
  Alcotest.(check int) "multigraph with loops and parallel edges" 45
    (words (Graph.of_edges ~n:5 [ (0, 0); (0, 1); (1, 0); (2, 3); (3, 3); (4, 2); (0, 1) ]))

(* -- builder --------------------------------------------------------------- *)

let builder_roundtrip () =
  let b = Builder.create ~n:3 in
  Builder.add_edge b 0 1;
  Builder.add_edge b 1 2;
  Alcotest.(check int) "count" 2 (Builder.edge_count b);
  let g = Builder.to_graph b in
  Alcotest.(check (list (pair int int))) "order preserved" [ (0, 1); (1, 2) ]
    (Graph.edge_list g);
  (* Builder remains usable. *)
  Builder.add_edge b 2 0;
  let g2 = Builder.to_graph b in
  Alcotest.(check int) "extended" 3 (Graph.m g2)

let builder_validation () =
  let b = Builder.create ~n:2 in
  Alcotest.check_raises "range"
    (Invalid_argument "Builder.add_edge: vertex out of range") (fun () ->
      Builder.add_edge b 0 5)

(* -- traversal ------------------------------------------------------------- *)

let bfs_path () =
  let g = Gen_classic.path 5 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |]
    (Traversal.bfs_distances g 0);
  Alcotest.(check int) "distance" 4 (Traversal.distance g 0 4);
  Alcotest.(check int) "eccentricity mid" 2 (Traversal.eccentricity g 2)

let bfs_bounded () =
  let g = Gen_classic.path 5 in
  let d = Traversal.bfs_distances_bounded g 0 2 in
  Alcotest.(check int) "within radius" 2 d.(2);
  Alcotest.(check int) "beyond radius" (-1) d.(3)

let components_test () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  let labels, k = Traversal.connected_components g in
  Alcotest.(check int) "3 components" 3 k;
  Alcotest.(check bool) "0 and 1 together" true (labels.(0) = labels.(1));
  Alcotest.(check bool) "0 and 2 apart" true (labels.(0) <> labels.(2));
  Alcotest.(check bool) "connected" false (Traversal.is_connected g);
  Alcotest.(check (list int)) "component of 2" [ 2; 3 ]
    (Traversal.component_of g 2);
  Alcotest.(check (list int)) "largest = {0,1} or {2,3}" [ 0; 1 ]
    (Traversal.largest_component_vertices g)

let diameter_known () =
  Alcotest.(check int) "path" 4 (Traversal.diameter (Gen_classic.path 5));
  Alcotest.(check int) "cycle" 3 (Traversal.diameter (Gen_classic.cycle 6));
  Alcotest.(check int) "complete" 1 (Traversal.diameter (Gen_classic.complete 5));
  Alcotest.(check int) "hypercube" 4
    (Traversal.diameter (Gen_classic.hypercube 4));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Traversal.diameter: disconnected graph") (fun () ->
      ignore (Traversal.diameter (Graph.of_edges ~n:3 [ (0, 1) ])))

let diameter_double_sweep () =
  List.iter
    (fun g ->
      let lb = Traversal.diameter_lower_bound g in
      let d = Traversal.diameter g in
      Alcotest.(check bool) "lb <= diameter" true (lb <= d);
      Alcotest.(check bool) "lb within half" true (lb * 2 >= d))
    [ Gen_classic.path 9; Gen_classic.cycle 10; Gen_classic.torus2d 4 5 ]

let bipartite_known () =
  Alcotest.(check bool) "even cycle" true
    (Traversal.is_bipartite (Gen_classic.cycle 6));
  Alcotest.(check bool) "odd cycle" false
    (Traversal.is_bipartite (Gen_classic.cycle 5));
  Alcotest.(check bool) "hypercube" true
    (Traversal.is_bipartite (Gen_classic.hypercube 3));
  Alcotest.(check bool) "triangle" false (Traversal.is_bipartite (triangle ()))

let dfs_preorder_test () =
  let g = Gen_classic.path 4 in
  Alcotest.(check (list int)) "path preorder" [ 0; 1; 2; 3 ]
    (Traversal.dfs_preorder g 0);
  let star = Gen_classic.star 4 in
  Alcotest.(check int) "covers component" 4
    (List.length (Traversal.dfs_preorder star 0))

let spanning_forest_test () =
  let g = Gen_classic.torus2d 3 3 in
  let f = Traversal.spanning_forest g in
  Alcotest.(check int) "n-1 edges" 8 (List.length f);
  let g2 = Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "n - #components" 2
    (List.length (Traversal.spanning_forest g2))

(* -- girth ----------------------------------------------------------------- *)

let girth_known () =
  let some = Alcotest.(option int) in
  Alcotest.check some "cycle 7" (Some 7) (Girth.girth (Gen_classic.cycle 7));
  Alcotest.check some "complete" (Some 3) (Girth.girth (Gen_classic.complete 5));
  Alcotest.check some "petersen" (Some 5) (Girth.girth (Gen_classic.petersen ()));
  Alcotest.check some "hypercube" (Some 4)
    (Girth.girth (Gen_classic.hypercube 4));
  Alcotest.check some "tree acyclic" None
    (Girth.girth (Gen_classic.binary_tree 3));
  Alcotest.check some "self-loop" (Some 1)
    (Girth.girth (Graph.of_edges ~n:2 [ (0, 0); (0, 1) ]));
  Alcotest.check some "parallel" (Some 2)
    (Girth.girth (Graph.of_edges ~n:2 [ (0, 1); (0, 1) ]))

let girth_at_most_test () =
  let g = Gen_classic.cycle 9 in
  Alcotest.(check (option int)) "found within bound" (Some 9)
    (Girth.girth_at_most g 9);
  Alcotest.(check (option int)) "not within bound" None
    (Girth.girth_at_most g 8)

let shortest_cycle_through_test () =
  (* Triangle with a pendant path: vertex on triangle sees 3, pendant sees
     none. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  Alcotest.(check (option int)) "on triangle" (Some 3)
    (Girth.shortest_cycle_through g 0);
  Alcotest.(check (option int)) "pendant" None
    (Girth.shortest_cycle_through g 4);
  Alcotest.(check (option int)) "self-loop is 1" (Some 1)
    (Girth.shortest_cycle_through (Graph.of_edges ~n:1 [ (0, 0) ]) 0)

let count_cycles_known () =
  (* K4: 4 triangles, 3 quadrilaterals. *)
  let c = Girth.count_cycles (Gen_classic.complete 4) ~max_len:4 in
  Alcotest.(check int) "K4 triangles" 4 c.(3);
  Alcotest.(check int) "K4 squares" 3 c.(4);
  (* K5: 10 triangles, 15 C4, 12 C5. *)
  let c5 = Girth.count_cycles (Gen_classic.complete 5) ~max_len:5 in
  Alcotest.(check int) "K5 triangles" 10 c5.(3);
  Alcotest.(check int) "K5 squares" 15 c5.(4);
  Alcotest.(check int) "K5 pentagons" 12 c5.(5);
  (* Cycle graph: exactly one cycle. *)
  let cc = Girth.count_cycles (Gen_classic.cycle 6) ~max_len:6 in
  Alcotest.(check int) "cycle6 none shorter" 0 (cc.(3) + cc.(4) + cc.(5));
  Alcotest.(check int) "cycle6 itself" 1 cc.(6);
  (* Petersen: girth 5 with 12 pentagons and 10 hexagons. *)
  let cp = Girth.count_cycles (Gen_classic.petersen ()) ~max_len:6 in
  Alcotest.(check int) "petersen pentagons" 12 cp.(5);
  Alcotest.(check int) "petersen hexagons" 10 cp.(6);
  (* Multigraph conventions. *)
  let cm = Girth.count_cycles (Graph.of_edges ~n:2 [ (0, 0); (0, 1); (0, 1) ]) ~max_len:2 in
  Alcotest.(check int) "one loop" 1 cm.(1);
  Alcotest.(check int) "one digon" 1 cm.(2)

let cycles_through_test () =
  let g = Gen_classic.complete 4 in
  let cycles = Girth.cycles_through g 0 ~max_len:4 in
  (* Vertex 0 of K4 lies on 3 triangles and 3 quadrilaterals. *)
  let tri = List.filter (fun c -> List.length c = 3) cycles in
  let quad = List.filter (fun c -> List.length c = 4) cycles in
  Alcotest.(check int) "triangles through v" 3 (List.length tri);
  Alcotest.(check int) "quads through v" 3 (List.length quad);
  (* Every reported cycle passes through vertex 0. *)
  List.iter
    (fun cycle ->
      let touches =
        List.exists
          (fun e ->
            let u, v = Graph.endpoints g e in
            u = 0 || v = 0)
          cycle
      in
      Alcotest.(check bool) "touches root" true touches)
    cycles

(* -- subgraph -------------------------------------------------------------- *)

let induced_test () =
  let g = Gen_classic.complete 5 in
  let sub, map = Subgraph.induced g [ 0; 1; 2 ] in
  Alcotest.(check int) "K3 vertices" 3 (Graph.n sub);
  Alcotest.(check int) "K3 edges" 3 (Graph.m sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] map;
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Subgraph: duplicate vertex") (fun () ->
      ignore (Subgraph.induced g [ 0; 0 ]))

let edge_subgraph_test () =
  let g = Gen_classic.cycle 5 in
  let sub = Subgraph.edge_subgraph g [ 0; 2 ] in
  Alcotest.(check int) "same vertex set" 5 (Graph.n sub);
  Alcotest.(check int) "two edges" 2 (Graph.m sub)

let contract_test () =
  let g = Gen_classic.cycle 6 in
  let gamma_g, map, gamma = Subgraph.contract g [ 0; 1; 2 ] in
  (* Contraction preserves edge count and total degree (paper, Section 2.2). *)
  Alcotest.(check int) "m preserved" (Graph.m g) (Graph.m gamma_g);
  Alcotest.(check int) "n reduced" 4 (Graph.n gamma_g);
  Alcotest.(check int) "gamma degree = d(S)" 6 (Graph.degree gamma_g gamma);
  Alcotest.(check int) "members map to gamma" gamma map.(1);
  (* Edges inside S become self-loops. *)
  Alcotest.(check int) "loops" 2 (Graph.count_self_loops gamma_g)

let contract_validation () =
  let g = triangle () in
  Alcotest.check_raises "empty" (Invalid_argument "Subgraph.contract: empty set")
    (fun () -> ignore (Subgraph.contract g []))

let remove_edges_test () =
  let g = Gen_classic.cycle 5 in
  let g2 = Subgraph.remove_edges g [ 0 ] in
  Alcotest.(check int) "one fewer" 4 (Graph.m g2);
  Alcotest.(check bool) "now a path" true (Traversal.is_connected g2)

(* -- properties ------------------------------------------------------------ *)

let random_edge_list =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 15 in
      let* k = int_range 0 30 in
      let* edges = list_size (return k) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      return (n, edges))

let prop_csr_wellformed =
  QCheck.Test.make ~name:"CSR invariants on random multigraphs" ~count:300
    random_edge_list (fun (n, edges) ->
      let g = Graph.of_edges ~n edges in
      let m = Graph.m g in
      (* Degree sum = 2m. *)
      Array.fold_left ( + ) 0 (Graph.degrees g) = 2 * m
      (* Each edge's positions map back to it. *)
      && List.for_all
           (fun e ->
             Graph.slot_edge g (Graph.edge_slot g e 0) = e
             && Graph.slot_edge g (Graph.edge_slot g e 1) = e)
           (List.init m (fun e -> e))
      (* Slot neighbours agree with endpoints. *)
      && List.for_all
           (fun v ->
             Graph.fold_neighbors g v
               (fun acc w e ->
                 acc
                 &&
                 let a, b = Graph.endpoints g e in
                 (a = v && b = w) || (b = v && a = w))
               true)
           (List.init n (fun v -> v)))

let prop_components_partition =
  QCheck.Test.make ~name:"components partition the vertex set" ~count:200
    random_edge_list (fun (n, edges) ->
      let g = Graph.of_edges ~n edges in
      let labels, k = Traversal.connected_components g in
      Array.for_all (fun c -> c >= 0 && c < k) labels
      && List.for_all
           (fun (u, v) -> labels.(u) = labels.(v))
           (Graph.edge_list g))

let prop_girth_vs_cycle_count =
  QCheck.Test.make ~name:"girth agrees with the cycle census" ~count:100
    random_edge_list (fun (n, edges) ->
      let g = Graph.of_edges ~n edges in
      let counts = Girth.count_cycles g ~max_len:(min 8 (n + 1)) in
      let smallest = ref None in
      Array.iteri
        (fun k c -> if c > 0 && !smallest = None then smallest := Some k)
        counts;
      match (Girth.girth_at_most g (min 8 (n + 1)), !smallest) with
      | Some gg, Some k -> gg = k
      | None, None -> true
      | Some gg, None -> gg > min 8 (n + 1) (* impossible: girth within bound *)
      | None, Some _ -> false)

(* The pair-table definition [count_parallel_edges] had before it became
   one stamp array: the reference the property compares against. *)
let parallel_reference g =
  let seen = Hashtbl.create 16 in
  Graph.fold_edges g
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

let prop_parallel_reference =
  QCheck.Test.make ~name:"parallel-edge count = pair-table reference" ~count:300
    QCheck.(triple small_int (int_range 1 30) (int_range 0 6))
    (fun (seed, n, r) ->
      let n = if n * r land 1 = 1 then n + 1 else n in
      let g = Ewalk_graph.Gen_regular.pairing_multigraph (Rng.create ~seed ()) n r in
      Graph.count_parallel_edges g = parallel_reference g
      && Graph.is_simple g
         = (Graph.count_self_loops g = 0 && parallel_reference g = 0))

(* The [Queue] search the traversals ran before they moved to int-array
   queues: the same visit order gives the same distances and labels. *)
let queue_bfs g s radius =
  let dist = Array.make (Graph.n g) (-1) in
  let q = Queue.create () in
  dist.(s) <- 0;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    if dist.(v) < radius then
      Graph.iter_neighbors g v (fun w _ ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
  done;
  dist

let prop_traversal_reference =
  QCheck.Test.make ~name:"array-queue searches = Queue reference" ~count:300
    random_edge_list (fun (n, edges) ->
      let g = Graph.of_edges ~n edges in
      let labels, _ = Traversal.connected_components g in
      List.for_all
        (fun s ->
          let reach = queue_bfs g s max_int in
          Traversal.bfs_distances g s = reach
          && Traversal.bfs_distances_bounded g s 2 = queue_bfs g s 2
          && Array.for_all2 (fun d l -> d >= 0 = (l = labels.(s))) reach labels)
        (List.init n (fun s -> s)))

(* -- direct fill ------------------------------------------------------------- *)

let same_graph g h = Graph.digest g = Graph.digest h && Graph.degrees g = Graph.degrees h

let rows_fill () =
  (* 4-regular on 4 vertices, with loops and a parallel pair. *)
  let edges = [| (0, 1); (2, 2); (1, 2); (0, 3); (3, 1); (0, 2); (3, 3); (0, 1) |] in
  let t = Graph.Rows.create ~n:4 ~width:4 in
  Array.iter (fun (u, v) -> Graph.Rows.add_edge t u v) edges;
  Alcotest.(check bool) "adjacent" true (Graph.Rows.adjacent t 3 1);
  Alcotest.(check bool) "loop adjacent" true (Graph.Rows.adjacent t 2 2);
  Alcotest.(check bool) "not adjacent" false (Graph.Rows.adjacent t 0 0);
  Alcotest.(check bool) "connected" true (Graph.Rows.connected t ~stack:(Array.make 4 0));
  Alcotest.check_raises "row full" (Invalid_argument "Graph.Rows.add_edge: row full")
    (fun () -> Graph.Rows.add_edge t 0 1);
  let g = Graph.Rows.freeze t in
  Alcotest.(check bool) "= of_edge_array" true (same_graph g (Graph.of_edge_array ~n:4 edges));
  Alcotest.(check bool) "the table gave its arrays up" true
    (match Graph.Rows.add_edge t 0 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

let rows_partial () =
  let t = Graph.Rows.create ~n:4 ~width:2 in
  Graph.Rows.add_edge t 0 1;
  Graph.Rows.add_edge t 2 3;
  Alcotest.(check bool) "two components" false
    (Graph.Rows.connected t ~stack:(Array.make 4 0));
  Alcotest.check_raises "not full" (Invalid_argument "Graph.Rows.freeze: a row is not full")
    (fun () -> ignore (Graph.Rows.freeze t));
  Graph.Rows.clear t;
  Alcotest.(check bool) "cleared adjacency" false (Graph.Rows.adjacent t 0 1);
  List.iter (fun (u, v) -> Graph.Rows.add_edge t u v) [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  Alcotest.(check bool) "cycle" true
    (same_graph (Graph.Rows.freeze t)
       (Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]));
  Alcotest.check_raises "odd slots" (Invalid_argument "Graph.Rows.create: n * width is odd")
    (fun () -> ignore (Graph.Rows.create ~n:3 ~width:3))

let () =
  Alcotest.run "graph"
    [
      ( "core",
        [
          Alcotest.test_case "counts" `Quick graph_counts;
          Alcotest.test_case "degrees" `Quick graph_degrees;
          Alcotest.test_case "self loop" `Quick graph_self_loop;
          Alcotest.test_case "parallel edges" `Quick graph_parallel_edges;
          Alcotest.test_case "endpoints/opposite" `Quick
            graph_endpoints_opposite;
          Alcotest.test_case "slots consistent" `Quick graph_slots_consistent;
          Alcotest.test_case "neighbors" `Quick graph_neighbors;
          Alcotest.test_case "edges iteration" `Quick graph_edges_iteration;
          Alcotest.test_case "mem_edge" `Quick graph_mem_edge;
          Alcotest.test_case "validation" `Quick graph_validation;
          Alcotest.test_case "size limits" `Quick graph_size_limits;
          Alcotest.test_case "heap words" `Quick graph_heap_words;
        ] );
      ( "builder",
        [
          Alcotest.test_case "roundtrip" `Quick builder_roundtrip;
          Alcotest.test_case "validation" `Quick builder_validation;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs path" `Quick bfs_path;
          Alcotest.test_case "bfs bounded" `Quick bfs_bounded;
          Alcotest.test_case "components" `Quick components_test;
          Alcotest.test_case "diameter known" `Quick diameter_known;
          Alcotest.test_case "double sweep" `Quick diameter_double_sweep;
          Alcotest.test_case "bipartite" `Quick bipartite_known;
          Alcotest.test_case "dfs preorder" `Quick dfs_preorder_test;
          Alcotest.test_case "spanning forest" `Quick spanning_forest_test;
        ] );
      ( "girth",
        [
          Alcotest.test_case "known girths" `Quick girth_known;
          Alcotest.test_case "girth_at_most" `Quick girth_at_most_test;
          Alcotest.test_case "shortest cycle through" `Quick
            shortest_cycle_through_test;
          Alcotest.test_case "count cycles known" `Quick count_cycles_known;
          Alcotest.test_case "cycles through" `Quick cycles_through_test;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "induced" `Quick induced_test;
          Alcotest.test_case "edge subgraph" `Quick edge_subgraph_test;
          Alcotest.test_case "contract" `Quick contract_test;
          Alcotest.test_case "contract validation" `Quick contract_validation;
          Alcotest.test_case "remove edges" `Quick remove_edges_test;
        ] );
      ( "properties",
        [
          qcheck prop_csr_wellformed;
          qcheck prop_components_partition;
          qcheck prop_girth_vs_cycle_count;
          qcheck prop_parallel_reference;
          qcheck prop_traversal_reference;
        ] );
      ( "direct fill",
        [
          Alcotest.test_case "rows = of_edge_array" `Quick rows_fill;
          Alcotest.test_case "partial rows" `Quick rows_partial;
        ] );
    ]
