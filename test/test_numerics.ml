(* Tests for the numeric extensions: dense solves, Lanczos, exact hitting
   times, and the Metropolis walk. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Matrix = Ewalk_linalg.Matrix
module Solve = Ewalk_linalg.Solve
module Lanczos = Ewalk_linalg.Lanczos
module Power = Ewalk_linalg.Power
module Jacobi = Ewalk_linalg.Jacobi
module Spectral = Ewalk_spectral.Spectral
module Hitting = Ewalk_spectral.Hitting
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest
let closef tol msg a b = Alcotest.(check (float tol)) msg a b

(* -- Solve ----------------------------------------------------------------- *)

let solve_known_system () =
  (* [[2 1];[1 3]] x = [5; 10] -> x = [1; 3]. *)
  let a = Matrix.init 2 (fun i j -> if i = j then float_of_int (2 + i) else 1.0) in
  let x = Solve.solve a [| 5.0; 10.0 |] in
  closef 1e-10 "x0" 1.0 x.(0);
  closef 1e-10 "x1" 3.0 x.(1)

let solve_identity () =
  let x = Solve.solve (Matrix.identity 4) [| 1.0; 2.0; 3.0; 4.0 |] in
  Array.iteri (fun i v -> closef 1e-12 "identity" (float_of_int (i + 1)) v) x

let solve_random_consistency () =
  let rng = Rng.create ~seed:1 () in
  for _ = 1 to 10 do
    let n = 8 in
    let a =
      Matrix.init n (fun i j ->
          Rng.float rng 2.0 -. 1.0 +. if i = j then 4.0 else 0.0)
    in
    let x_true = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
    let b = Matrix.mul_vec a x_true in
    let x = Solve.solve a b in
    Array.iteri (fun i v -> closef 1e-8 "recovered" x_true.(i) v) x
  done

let solve_singular () =
  let a = Matrix.create 2 in
  Matrix.set a 0 0 1.0;
  Matrix.set a 0 1 1.0;
  Matrix.set a 1 0 1.0;
  Matrix.set a 1 1 1.0;
  Alcotest.check_raises "singular" (Failure "Solve: singular matrix")
    (fun () -> ignore (Solve.solve a [| 1.0; 2.0 |]))

let solve_many_columns () =
  let a = Matrix.init 3 (fun i j -> if i = j then 2.0 else 0.0) in
  let b = Matrix.init 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let x = Solve.solve_many a b in
  for i = 0 to 2 do
    for j = 0 to 2 do
      closef 1e-12 "halved" (Matrix.get b i j /. 2.0) (Matrix.get x i j)
    done
  done

let determinant_probe () =
  let a = Matrix.init 2 (fun i j -> if i = j then 3.0 else 1.0) in
  let sign, log_abs = Solve.determinant_sign_log a in
  closef 1e-10 "det 8" (log 8.0) log_abs;
  closef 1e-12 "positive" 1.0 sign

(* -- Lanczos ---------------------------------------------------------------- *)

let lanczos_diagonal () =
  let m = Matrix.create 5 in
  List.iteri (fun i v -> Matrix.set m i i v) [ 3.0; -2.0; 7.0; 0.5; -5.0 ];
  let top, bottom = Lanczos.extreme (Power.of_matrix m) in
  closef 1e-6 "largest" 7.0 top;
  closef 1e-6 "smallest" (-5.0) bottom

let lanczos_matches_jacobi () =
  let rng = Rng.create ~seed:2 () in
  let n = 20 in
  let a = Matrix.create n in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let v = Rng.float rng 2.0 -. 1.0 in
      Matrix.set a i j v;
      Matrix.set a j i v
    done
  done;
  let eigs = Jacobi.eigenvalues a in
  let top, bottom = Lanczos.extreme ~steps:n (Power.of_matrix a) in
  closef 1e-6 "top" eigs.(0) top;
  closef 1e-6 "bottom" eigs.(n - 1) bottom

let lanczos_deflated_second () =
  let m = Matrix.create 4 in
  List.iteri (fun i v -> Matrix.set m i i v) [ 9.0; 6.0; 2.0; 1.0 ];
  let top = [| 1.0; 0.0; 0.0; 0.0 |] in
  let second = Lanczos.second_largest ~deflate:top (Power.of_matrix m) in
  closef 1e-6 "second" 6.0 second

let lanczos_graph_lambda2 () =
  (* Against the exact spectrum on graphs where power iteration is fine
     anyway, and on the cycle where lambda_2 is analytic. *)
  let g = Gen_classic.cycle 24 in
  closef 1e-6 "cycle lambda_2"
    (cos (2.0 *. Float.pi /. 24.0))
    (Spectral.lambda_2_lanczos g);
  let rng = Rng.create ~seed:3 () in
  let gr = Gen_regular.random_regular_connected rng 80 4 in
  closef 1e-5 "random regular lambda_2" (Spectral.gap_exact gr).Spectral.lambda_2
    (Spectral.lambda_2_lanczos gr)

let lanczos_gap_report () =
  let g = Gen_classic.cycle 16 in
  let r = Spectral.gap_lanczos g in
  let exact = Spectral.gap_exact g in
  closef 1e-6 "lambda_2" exact.Spectral.lambda_2 r.Spectral.lambda_2;
  closef 1e-6 "lambda_n" exact.Spectral.lambda_n r.Spectral.lambda_n;
  closef 1e-6 "lambda_max" exact.Spectral.lambda_max r.Spectral.lambda_max

(* -- Hitting ----------------------------------------------------------------- *)

let hitting_complete_graph () =
  (* K_n: E_u H_v = n - 1 for u <> v. *)
  let n = 10 in
  let h = Hitting.hitting_times_to (Gen_classic.complete n) ~target:0 in
  closef 1e-9 "target zero" 0.0 h.(0);
  for u = 1 to n - 1 do
    closef 1e-8 "n - 1" (float_of_int (n - 1)) h.(u)
  done

let hitting_cycle_formula () =
  (* C_n: E_u H_v = k (n - k) where k is the distance. *)
  let n = 12 in
  let g = Gen_classic.cycle n in
  let h = Hitting.hitting_times_to g ~target:0 in
  for u = 1 to n - 1 do
    let k = min u (n - u) in
    closef 1e-8 "k(n-k)" (float_of_int (k * (n - k))) h.(u)
  done

let hitting_path_formula () =
  (* Path 0..n-1: E_0 H_{n-1} = (n-1)^2. *)
  let n = 9 in
  let h = Hitting.hitting_times_to (Gen_classic.path n) ~target:(n - 1) in
  closef 1e-8 "(n-1)^2" (float_of_int ((n - 1) * (n - 1))) h.(0)

let hitting_return_identity () =
  (* E_v T_v^+ = 1/pi_v on an irregular graph. *)
  let g = Gen_classic.lollipop 5 4 in
  let pi = Spectral.stationary g in
  for v = 0 to Graph.n g - 1 do
    closef 1e-6 "1/pi" (1.0 /. pi.(v)) (Hitting.expected_return_time g v)
  done

let hitting_lemma6_bound () =
  let rng = Rng.create ~seed:4 () in
  let g = Gen_regular.random_regular_connected rng 40 4 in
  let gap = (Spectral.gap_exact g).Spectral.gap in
  let pi = Spectral.stationary g in
  for v = 0 to Graph.n g - 1 do
    let measured = Hitting.hitting_from_stationary g v in
    let bound = 1.0 /. (gap *. pi.(v)) in
    Alcotest.(check bool) "lemma 6" true (measured <= bound +. 1e-6)
  done

let hitting_commute_symmetric () =
  let g = Gen_classic.lollipop 4 3 in
  let k1 = Hitting.commute_time g 0 (Graph.n g - 1) in
  let k2 = Hitting.commute_time g (Graph.n g - 1) 0 in
  closef 1e-6 "symmetric" k1 k2;
  (* Commute time >= 2 (at least one step each way). *)
  Alcotest.(check bool) "positive" true (k1 > 2.0)

let hitting_matrix_consistent () =
  let g = Gen_classic.cycle 8 in
  let hm = Hitting.hitting_matrix g in
  let h0 = Hitting.hitting_times_to g ~target:0 in
  for u = 0 to 7 do
    closef 1e-9 "column agrees" h0.(u) (Matrix.get hm u 0)
  done

let hitting_validation () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Hitting: graph is disconnected") (fun () ->
      ignore
        (Hitting.hitting_times_to (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ])
           ~target:0));
  Alcotest.check_raises "edgeless"
    (Invalid_argument "Hitting: graph has no edges") (fun () ->
      ignore (Hitting.hitting_times_to (Graph.of_edges ~n:3 []) ~target:0))

let matthews_on_cycle () =
  (* Matthews bound must dominate the known expected cover time
     n(n-1)/2 of the cycle. *)
  let n = 16 in
  let bound = Hitting.matthews_upper_bound (Gen_classic.cycle n) in
  let exact_cover = float_of_int (n * (n - 1)) /. 2.0 in
  Alcotest.(check bool) "dominates exact cover" true (bound >= exact_cover)


let effective_resistance_known () =
  (* Two resistors in series: path 0-1-2 has R(0,2) = 2. *)
  let p = Gen_classic.path 3 in
  closef 1e-9 "series" 2.0 (Hitting.effective_resistance p 0 2);
  (* Parallel edges halve: double edge between 0 and 1. *)
  let parallel = Graph.of_edges ~n:3 [ (0, 1); (0, 1); (1, 2) ] in
  closef 1e-9 "parallel" 0.5 (Hitting.effective_resistance parallel 0 1);
  (* Cycle: k and n-k in parallel. *)
  let n = 10 in
  let c = Gen_classic.cycle n in
  let k = 3 in
  closef 1e-8 "cycle"
    (float_of_int (k * (n - k)) /. float_of_int n)
    (Hitting.effective_resistance c 0 k);
  closef 1e-12 "self" 0.0 (Hitting.effective_resistance c 4 4)

let commute_time_identity () =
  (* Chandra et al.: K(u, v) = 2 m R(u, v). *)
  let rng = Rng.create ~seed:8 () in
  List.iter
    (fun g ->
      let m = float_of_int (Graph.m g) in
      let u = 0 and v = Graph.n g - 1 in
      closef 1e-5 "K = 2mR"
        (2.0 *. m *. Hitting.effective_resistance g u v)
        (Hitting.commute_time g u v))
    [
      Gen_classic.lollipop 5 4;
      Gen_classic.torus2d 4 4;
      Gen_regular.random_regular_connected rng 30 4;
      Gen_classic.binary_tree 3;
    ]

let resistance_rejects_loops () =
  let g = Graph.of_edges ~n:2 [ (0, 0); (0, 1); (0, 1) ] in
  Alcotest.check_raises "loops"
    (Invalid_argument "Hitting.effective_resistance: self-loops not supported")
    (fun () -> ignore (Hitting.effective_resistance g 0 1))

(* -- Metropolis ---------------------------------------------------------------- *)

let metropolis_uniform_visits () =
  (* On a lollipop the Metropolis walk equalises visit frequencies where the
     SRW concentrates on the clique. *)
  let g = Gen_classic.lollipop 6 6 in
  let rng = Rng.create ~seed:5 () in
  let t = Ewalk.Metropolis.create g rng ~start:0 in
  let visits = Ewalk.Visits.create g in
  Ewalk.Cover.run_steps
    (Ewalk.Visits.attach visits (Ewalk.Metropolis.process t))
    600_000;
  let clique = Ewalk.Visits.visit_count visits 1 in
  let tip = Ewalk.Visits.visit_count visits (Graph.n g - 1) in
  let ratio = float_of_int clique /. float_of_int (max 1 tip) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f ~ 1 (tip gets boundary boost)" ratio)
    true
    (ratio > 0.4 && ratio < 1.6)

let metropolis_covers () =
  let rng = Rng.create ~seed:6 () in
  let g = Gen_regular.random_regular_connected rng 100 4 in
  let t = Ewalk.Metropolis.create g rng ~start:0 in
  match
    Ewalk.Cover.run_until_vertex_cover
      ~cap:(Ewalk.Cover.default_cap g)
      (Ewalk.Metropolis.process t)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "metropolis failed to cover"

let metropolis_equals_srw_on_regular () =
  (* On a regular graph every proposal is accepted: positions never repeat
     due to rejection (self-loops aside). *)
  let g = Gen_classic.torus2d 4 4 in
  let rng = Rng.create ~seed:7 () in
  let t = Ewalk.Metropolis.create g rng ~start:0 in
  let stays = ref 0 in
  let prev = ref (Ewalk.Metropolis.position t) in
  for _ = 1 to 1000 do
    Ewalk.Metropolis.step t;
    if Ewalk.Metropolis.position t = !prev then incr stays;
    prev := Ewalk.Metropolis.position t
  done;
  Alcotest.(check int) "no rejections on regular graphs" 0 !stays

let prop_solve_roundtrip =
  QCheck.Test.make ~name:"solve(a, a x) = x on diagonally dominant a"
    ~count:100 QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create ~seed () in
      let n = 6 in
      let a =
        Matrix.init n (fun i j ->
            Rng.float rng 1.0 +. if i = j then 8.0 else 0.0)
      in
      let x = Array.init n (fun _ -> Rng.float rng 4.0 -. 2.0) in
      let b = Matrix.mul_vec a x in
      let x' = Solve.solve a b in
      Array.for_all
        (fun i -> Float.abs (x.(i) -. x'.(i)) < 1e-7)
        (Array.init n (fun i -> i)))

let prop_hitting_positive =
  QCheck.Test.make ~name:"hitting times positive off-target" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create ~seed () in
      let g = Gen_regular.cycle_union rng 10 2 in
      let h = Hitting.hitting_times_to g ~target:0 in
      h.(0) = 0.0 && Array.for_all (fun x -> x >= 0.99) (Array.sub h 1 9))

let () =
  Alcotest.run "numerics"
    [
      ( "solve",
        [
          Alcotest.test_case "known system" `Quick solve_known_system;
          Alcotest.test_case "identity" `Quick solve_identity;
          Alcotest.test_case "random consistency" `Quick
            solve_random_consistency;
          Alcotest.test_case "singular" `Quick solve_singular;
          Alcotest.test_case "many columns" `Quick solve_many_columns;
          Alcotest.test_case "determinant probe" `Quick determinant_probe;
        ] );
      ( "lanczos",
        [
          Alcotest.test_case "diagonal" `Quick lanczos_diagonal;
          Alcotest.test_case "matches jacobi" `Quick lanczos_matches_jacobi;
          Alcotest.test_case "deflated second" `Quick lanczos_deflated_second;
          Alcotest.test_case "graph lambda_2" `Quick lanczos_graph_lambda2;
          Alcotest.test_case "gap report" `Quick lanczos_gap_report;
        ] );
      ( "hitting",
        [
          Alcotest.test_case "complete graph" `Quick hitting_complete_graph;
          Alcotest.test_case "cycle formula" `Quick hitting_cycle_formula;
          Alcotest.test_case "path formula" `Quick hitting_path_formula;
          Alcotest.test_case "return identity" `Quick hitting_return_identity;
          Alcotest.test_case "lemma 6" `Quick hitting_lemma6_bound;
          Alcotest.test_case "commute symmetric" `Quick
            hitting_commute_symmetric;
          Alcotest.test_case "matrix consistent" `Quick
            hitting_matrix_consistent;
          Alcotest.test_case "validation" `Quick hitting_validation;
          Alcotest.test_case "matthews on cycle" `Quick matthews_on_cycle;
          Alcotest.test_case "effective resistance" `Quick
            effective_resistance_known;
          Alcotest.test_case "commute identity" `Quick commute_time_identity;
          Alcotest.test_case "resistance loop guard" `Quick
            resistance_rejects_loops;
        ] );
      ( "metropolis",
        [
          Alcotest.test_case "uniform visits" `Quick metropolis_uniform_visits;
          Alcotest.test_case "covers" `Quick metropolis_covers;
          Alcotest.test_case "no rejection when regular" `Quick
            metropolis_equals_srw_on_regular;
        ] );
      ( "properties",
        [ qcheck prop_solve_roundtrip; qcheck prop_hitting_positive ] );
    ]
