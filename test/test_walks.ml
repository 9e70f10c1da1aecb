(* Tests for the baseline walk processes: SRW (plain/lazy),
   rotor-router, RWC(d), locally fair strategies, and the V-process. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Traversal = Ewalk_graph.Traversal
module Coverage = Ewalk.Coverage
module Cover = Ewalk.Cover
module Srw = Ewalk.Srw
module Rotor = Ewalk.Rotor
module Rwc = Ewalk.Rwc
module Fair = Ewalk.Fair
module Vprocess = Ewalk.Vprocess
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* -- SRW -------------------------------------------------------------------- *)

let srw_covers_cycle () =
  let g = Gen_classic.cycle 20 in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed () in
      let t = Srw.create g rng ~start:0 in
      match Cover.run_until_vertex_cover ~cap:1_000_000 (Srw.process t) with
      | Some s ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: at least n-1 steps" seed)
            true (s >= 19)
      | None -> Alcotest.failf "seed %d: srw failed to cover a cycle" seed)
    [ 1; 2; 3; 4 ]

let srw_validation () =
  let g = Gen_classic.cycle 4 in
  Alcotest.check_raises "bad start"
    (Invalid_argument "Srw.create: start out of range") (fun () ->
      ignore (Srw.create g (Rng.create ()) ~start:9));
  let iso = Graph.of_edges ~n:1 [] in
  let t = Srw.create iso (Rng.create ()) ~start:0 in
  Alcotest.check_raises "isolated"
    (Invalid_argument "Engine.step: isolated vertex") (fun () -> Srw.step t)

let srw_stationary_visits () =
  (* Long-run visit frequencies approach pi = d(v)/2m: on a lollipop a
     clique vertex must be visited about d(clique)/d(tip) times as often as
     the path tip. *)
  let g = Gen_classic.lollipop 6 6 in
  let rng = Rng.create ~seed:2 () in
  let t = Srw.create g rng ~start:0 in
  let steps = 400_000 in
  let visits = Ewalk.Visits.create g in
  Cover.run_steps (Ewalk.Visits.attach visits (Srw.process t)) steps;
  let clique_vertex = 0 and tip = Graph.n g - 1 in
  let ratio =
    float_of_int (Ewalk.Visits.visit_count visits clique_vertex)
    /. float_of_int (max 1 (Ewalk.Visits.visit_count visits tip))
  in
  let expected =
    float_of_int (Graph.degree g clique_vertex)
    /. float_of_int (Graph.degree g tip)
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f ~ %.2f" ratio expected)
    true
    (ratio > 0.6 *. expected && ratio < 1.4 *. expected)

let lazy_walk_stays () =
  let g = Gen_classic.cycle 10 in
  let rng = Rng.create ~seed:3 () in
  let t = Srw.create_lazy g rng ~start:0 in
  let stays = ref 0 in
  let prev = ref (Srw.position t) in
  for _ = 1 to 10_000 do
    Srw.step t;
    if Srw.position t = !prev then incr stays;
    prev := Srw.position t
  done;
  (* Roughly half the steps stay put. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d/10000 ~ 5000 stays" !stays)
    true
    (!stays > 4500 && !stays < 5500)

let srw_one_step_uniform () =
  (* From a degree-4 vertex each neighbour is chosen with probability 1/4. *)
  let g = Gen_classic.torus2d 5 5 in
  let rng = Rng.create ~seed:20 () in
  let counts = Hashtbl.create 8 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let t = Srw.create g rng ~start:0 in
    Srw.step t;
    let w = Srw.position t in
    Hashtbl.replace counts w
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
  done;
  Alcotest.(check int) "four neighbours seen" 4 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "within 5% of uniform" true
        (abs (c - (trials / 4)) < trials / 20))
    counts

let eprocess_blue_choice_uniform () =
  (* The uar rule picks uniformly among unvisited incident edges. *)
  let g = Gen_classic.torus2d 5 5 in
  let rng = Rng.create ~seed:21 () in
  let counts = Hashtbl.create 8 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let t = Ewalk.Eprocess.create g rng ~start:0 in
    Ewalk.Eprocess.step t;
    let w = Ewalk.Eprocess.position t in
    Hashtbl.replace counts w
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
  done;
  Alcotest.(check int) "four blue options" 4 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "within 5% of uniform" true
        (abs (c - (trials / 4)) < trials / 20))
    counts

(* -- Rotor-router ------------------------------------------------------------ *)

let rotor_deterministic () =
  let g = Gen_classic.torus2d 4 4 in
  let run () =
    let t = Rotor.create g (Rng.create ~seed:7 ()) ~start:0 in
    let acc = ref [] in
    for _ = 1 to 100 do
      Rotor.step t;
      acc := Rotor.position t :: !acc
    done;
    !acc
  in
  Alcotest.(check (list int)) "same trajectory" (run ()) (run ())

let rotor_covers_within_md () =
  (* Yanovski et al.: rotor-router covers within O(m D); check a generous
     multiple on several graphs. *)
  List.iter
    (fun g ->
      let m = Graph.m g and d = Traversal.diameter g in
      let t = Rotor.create g (Rng.create ~seed:8 ()) ~start:0 in
      match Cover.run_until_vertex_cover ~cap:(8 * m * (d + 1)) (Rotor.process t) with
      | Some _ -> ()
      | None -> Alcotest.fail "rotor exceeded 8 m D")
    [
      Gen_classic.cycle 30;
      Gen_classic.torus2d 6 6;
      Gen_classic.binary_tree 5;
      Gen_classic.petersen ();
    ]

let rotor_eulerian_period () =
  (* After stabilisation the rotor walk is periodic with period 2m,
     traversing an Eulerian circuit of the doubled graph. *)
  List.iter
    (fun g ->
      let m = Graph.m g and d = Traversal.diameter g in
      let t = Rotor.create g (Rng.create ~seed:9 ()) ~start:0 in
      (* Warm up far beyond the O(mD) stabilisation time. *)
      Cover.run_steps (Rotor.process t) (20 * m * (d + 1));
      let positions = Array.init (2 * m) (fun _ ->
          Rotor.step t;
          Rotor.position t)
      in
      for i = 0 to (2 * m) - 1 do
        Rotor.step t;
        Alcotest.(check int) "period 2m" positions.(i) (Rotor.position t)
      done)
    [ Gen_classic.cycle 6; Gen_classic.torus2d 3 3; Gen_classic.complete 4 ]

let rotor_offsets_advance () =
  let g = Gen_classic.cycle 5 in
  let t = Rotor.create g (Rng.create ()) ~start:0 in
  let before = Rotor.rotor_offset t 0 in
  Rotor.step t;
  Alcotest.(check int) "rotor advanced" ((before + 1) mod 2)
    (Rotor.rotor_offset t 0)

(* -- RWC(d) ------------------------------------------------------------------- *)

let rwc_validation () =
  let g = Gen_classic.cycle 4 in
  Alcotest.check_raises "d < 1" (Invalid_argument "Rwc.create: d < 1")
    (fun () -> ignore (Rwc.create ~d:0 g (Rng.create ()) ~start:0))

let rwc_covers () =
  let g = Gen_regular.random_regular_connected (Rng.create ~seed:10 ()) 100 4 in
  List.iter
    (fun seed ->
      let t = Rwc.create ~d:2 g (Rng.create ~seed ()) ~start:0 in
      match
        Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) (Rwc.process t)
      with
      | Some _ -> ()
      | None -> Alcotest.failf "seed %d: rwc(2) failed to cover" seed)
    [ 11; 12; 13 ]

let rwc_beats_srw_on_average () =
  (* Avin–Krishnamachari's observation: the power of choice reduces cover
     time.  Compare means over a few trials on a torus. *)
  let g = Gen_classic.torus2d 12 12 in
  let mean process_of =
    let total = ref 0 in
    for seed = 0 to 4 do
      let rng = Rng.create ~seed:(100 + seed) () in
      match
        Cover.run_until_vertex_cover ~cap:(Cover.default_cap g)
          (process_of rng)
      with
      | Some t -> total := !total + t
      | None -> Alcotest.fail "capped"
    done;
    float_of_int !total /. 5.0
  in
  let srw_mean = mean (fun rng -> Srw.process (Srw.create g rng ~start:0)) in
  let rwc_mean =
    mean (fun rng -> Rwc.process (Rwc.create ~d:2 g rng ~start:0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "rwc %.0f < srw %.0f" rwc_mean srw_mean)
    true (rwc_mean < srw_mean)

(* -- Fair strategies ----------------------------------------------------------- *)

let luf_covers_and_equalises () =
  let g = Gen_classic.torus2d 5 5 in
  let t =
    Fair.create ~strategy:Fair.Least_used_first g (Rng.create ~seed:12 ())
      ~start:0
  in
  (match Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) (Fair.process t) with
  | Some _ -> ()
  | None -> Alcotest.fail "luf failed to cover");
  (* Long-run edge frequencies equalise (Cooper et al.): after many steps the
     max/min traversal ratio is small. *)
  Cover.run_steps (Fair.process t) (200 * Graph.m g);
  let lo = ref max_int and hi = ref 0 in
  for e = 0 to Graph.m g - 1 do
    let c = Fair.traversals t e in
    if c < !lo then lo := c;
    if c > !hi then hi := c
  done;
  Alcotest.(check bool)
    (Printf.sprintf "traversals in [%d, %d]" !lo !hi)
    true
    (!lo > 0 && !hi <= 3 * !lo)

let oldest_first_covers_small () =
  let g = Gen_classic.cycle 12 in
  List.iter
    (fun seed ->
      let t =
        Fair.create ~strategy:Fair.Oldest_first g (Rng.create ~seed ())
          ~start:0
      in
      match Cover.run_until_vertex_cover ~cap:1_000_000 (Fair.process t) with
      | Some _ -> ()
      | None -> Alcotest.failf "seed %d: oldest-first failed on a cycle" seed)
    [ 13; 14; 15 ]

let fair_deterministic_without_random_ties () =
  let g = Gen_classic.torus2d 4 4 in
  let run () =
    let t =
      Fair.create ~strategy:Fair.Least_used_first g (Rng.create ~seed:14 ())
        ~start:0
    in
    let acc = ref [] in
    for _ = 1 to 64 do
      Fair.step t;
      acc := Fair.position t :: !acc
    done;
    !acc
  in
  Alcotest.(check (list int)) "deterministic" (run ()) (run ())

(* -- V-process ------------------------------------------------------------------ *)

let vprocess_prefers_unvisited () =
  (* On a star from the centre, the V-process must visit all leaves in the
     minimum possible 2(n-1) - 1 steps: it never revisits a leaf while an
     unvisited one remains. *)
  let g = Gen_classic.star 6 in
  let t = Vprocess.create g (Rng.create ~seed:15 ()) ~start:0 in
  match Cover.run_until_vertex_cover ~cap:1_000 (Vprocess.process t) with
  | Some s -> Alcotest.(check int) "optimal star tour" 9 s
  | None -> Alcotest.fail "v-process capped on star"

let vprocess_covers () =
  let g = Gen_regular.random_regular_connected (Rng.create ~seed:16 ()) 100 3 in
  List.iter
    (fun seed ->
      let t = Vprocess.create g (Rng.create ~seed ()) ~start:0 in
      match
        Cover.run_until_vertex_cover ~cap:(Cover.default_cap g)
          (Vprocess.process t)
      with
      | Some _ -> ()
      | None -> Alcotest.failf "seed %d: v-process failed to cover" seed)
    [ 17; 18; 19 ]

(* -- cross-process properties ----------------------------------------------------- *)

let prop_all_processes_cover_connected_graphs =
  QCheck.Test.make ~name:"every process covers a connected even graph"
    ~count:25
    QCheck.(pair small_int (int_range 0 5))
    (fun (seed, which) ->
      let g = Gen_regular.cycle_union (Rng.create ~seed ()) 14 2 in
      let rng = Rng.create ~seed:(seed + 50) () in
      let p =
        match which with
        | 0 -> Ewalk.Eprocess.process (Ewalk.Eprocess.create g rng ~start:0)
        | 1 -> Srw.process (Srw.create g rng ~start:0)
        | 2 -> Rotor.process (Rotor.create g rng ~start:0)
        | 3 -> Rwc.process (Rwc.create ~d:2 g rng ~start:0)
        | 4 ->
            Fair.process
              (Fair.create ~strategy:Fair.Least_used_first g rng ~start:0)
        | _ -> Vprocess.process (Vprocess.create g rng ~start:0)
      in
      Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) p <> None)

let prop_coverage_counts_match_steps =
  QCheck.Test.make ~name:"total visit counts = steps + 1" ~count:25
    QCheck.(small_int)
    (fun seed ->
      let g = Gen_regular.cycle_union (Rng.create ~seed ()) 12 2 in
      let rng = Rng.create ~seed:(seed + 99) () in
      let t = Srw.create g rng ~start:0 in
      let visits = Ewalk.Visits.create g in
      Cover.run_steps (Ewalk.Visits.attach visits (Srw.process t)) 500;
      let total = ref 0 in
      for v = 0 to Graph.n g - 1 do
        total := !total + Ewalk.Visits.visit_count visits v
      done;
      !total = 501)

let () =
  Alcotest.run "walks"
    [
      ( "srw",
        [
          Alcotest.test_case "covers cycle" `Quick srw_covers_cycle;
          Alcotest.test_case "validation" `Quick srw_validation;
          Alcotest.test_case "stationary visits" `Quick srw_stationary_visits;
          Alcotest.test_case "lazy stays" `Quick lazy_walk_stays;
          Alcotest.test_case "one-step uniform" `Quick srw_one_step_uniform;
          Alcotest.test_case "e-process blue choice uniform" `Quick
            eprocess_blue_choice_uniform;
        ] );
      ( "rotor",
        [
          Alcotest.test_case "deterministic" `Quick rotor_deterministic;
          Alcotest.test_case "covers within mD" `Quick rotor_covers_within_md;
          Alcotest.test_case "eulerian period" `Quick rotor_eulerian_period;
          Alcotest.test_case "offsets advance" `Quick rotor_offsets_advance;
        ] );
      ( "rwc",
        [
          Alcotest.test_case "validation" `Quick rwc_validation;
          Alcotest.test_case "covers" `Quick rwc_covers;
          Alcotest.test_case "beats srw" `Quick rwc_beats_srw_on_average;
        ] );
      ( "fair",
        [
          Alcotest.test_case "luf covers and equalises" `Quick
            luf_covers_and_equalises;
          Alcotest.test_case "oldest-first small" `Quick
            oldest_first_covers_small;
          Alcotest.test_case "deterministic" `Quick
            fair_deterministic_without_random_ties;
        ] );
      ( "vprocess",
        [
          Alcotest.test_case "prefers unvisited" `Quick
            vprocess_prefers_unvisited;
          Alcotest.test_case "covers" `Quick vprocess_covers;
        ] );
      ( "properties",
        [
          qcheck prop_all_processes_cover_connected_graphs;
          qcheck prop_coverage_counts_match_steps;
        ] );
    ]
