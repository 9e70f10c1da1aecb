(* The compact-data-plane battery (gating `make test-compact`, part of
   `make ci`):

   - the packed {!Ewalk.Bitset} against a boolean-array reference model
     (qcheck over random op sequences, with shrinking), plus the hex wire
     format round trip;
   - the {!Ewalk.Arc_marks} slot marks against a boolean-array model under
     any retirement order, on multigraphs with self-loops, parallel edges
     and regions wider than one machine word;
   - the visited set: after every step of every engine process, one
     walker or four, cooperating or competing, on generated pairing
     multigraphs, each coverage's marks hold exactly the edges its
     walkers have traversed, per a boolean-array model fed by the step
     events;
   - the kernel engine's visited edges against the naive oracle after
     every step, per configuration, and competing run_rounds at jobs in
     {1,4}. *)

module Graph = Ewalk_graph.Graph
module Gen_regular = Ewalk_graph.Gen_regular
module Rng = Ewalk_prng.Rng
module Bitset = Ewalk.Bitset
module Arc_marks = Ewalk.Arc_marks
module Eprocess = Ewalk.Eprocess
module Coverage = Ewalk.Coverage
module Kengine = Ewalk.Engine
module Oracle = Ewalk_check.Oracle
module Exp_util = Ewalk_expt.Exp_util

let qcheck = QCheck_alcotest.to_alcotest

(* -- Bitset vs boolean-array reference -------------------------------------- *)

(* An op sequence over a [len]-bit set, mirrored into a bool array; every
   observation must agree.  Ops are (tag, raw index) pairs so qcheck's
   list shrinker produces readable counterexamples. *)
let prop_bitset_reference =
  QCheck.Test.make ~name:"Bitset = bool-array reference (ops, popcount, hex)"
    ~count:300
    QCheck.(
      pair (int_range 1 200) (small_list (pair (int_range 0 2) small_nat)))
    (fun (len, ops) ->
      let b = Bitset.create len in
      let r = Array.make len false in
      List.iter
        (fun (tag, raw) ->
          let i = raw mod len in
          match tag with
          | 0 ->
              Bitset.set b i;
              r.(i) <- true
          | 1 ->
              Bitset.clear b i;
              r.(i) <- false
          | _ ->
              if Bitset.get b i <> r.(i) then
                QCheck.Test.fail_reportf "get %d disagrees" i)
        ops;
      let popcount_ok =
        Bitset.popcount b = Array.fold_left (fun a x -> if x then a + 1 else a) 0 r
      in
      let bits_ok = Array.for_all Fun.id (Array.mapi (fun i x -> Bitset.get b i = x) r) in
      let hex_ok =
        let b' = Bitset.of_hex ~len (Bitset.to_hex b) in
        Bitset.equal b b' && Bitset.length b' = len
      in
      let copy_ok =
        let c = Bitset.copy b in
        Bitset.equal b c
        && (len = 0
           ||
           (* a copy must not share the backing store *)
           let i = (match ops with (_, raw) :: _ -> raw mod len | [] -> 0) in
           let before = Bitset.get b i in
           Bitset.set c i;
           Bitset.get b i = before)
      in
      popcount_ok && bits_ok && hex_ok && copy_ok)

let bitset_edges () =
  let b = Bitset.create 9 in
  Bitset.set b 0;
  Bitset.set b 8;
  Alcotest.(check int) "popcount" 2 (Bitset.popcount b);
  Alcotest.(check string) "hex, low byte first" "0101" (Bitset.to_hex b);
  Bitset.fill_all b;
  Alcotest.(check int) "fill_all popcount" 9 (Bitset.popcount b);
  Bitset.reset b;
  Alcotest.(check int) "reset popcount" 0 (Bitset.popcount b);
  Alcotest.check_raises "of_hex rejects set padding bit"
    (Invalid_argument "Bitset.of_bytes: padding bits set") (fun () ->
      ignore (Bitset.of_hex ~len:9 "01ff"));
  Alcotest.check_raises "out-of-range get"
    (Invalid_argument "Bitset.get: index out of range") (fun () ->
      ignore (Bitset.get b 9))

(* -- Arc_marks vs boolean-array model ---------------------------------------- *)

(* A pairing multigraph: [r]-regular with self-loops and parallel edges.
   [n * r] is made even by bumping [n]. *)
let pairing g_seed ~n ~r =
  let n = if n * r mod 2 = 1 then n + 1 else n in
  Gen_regular.pairing_multigraph (Rng.create ~seed:g_seed ()) n r

(* The live slots of [v] as the marks enumerate them, and as a per-edge
   visited predicate says they should be: every slot of [v]'s region whose
   edge is unvisited, in adjacency order. *)
let live_slots g marks v =
  let start = Graph.adj_start g v and stop = Graph.adj_stop g v in
  List.init (Arc_marks.live marks ~start ~stop) (Arc_marks.nth_live marks ~start ~stop)

let expected_live g visited v =
  List.filter
    (fun p -> not (visited (Graph.slot_edge g p)))
    (List.init (Graph.degree g v) (fun i -> Graph.adj_start g v + i))

let vertex_agrees g marks visited v =
  live_slots g marks v = expected_live g visited v

let marks_agree g marks visited =
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if not (vertex_agrees g marks visited v) then ok := false
  done;
  !ok

let shuffled_edges g seed =
  let rng = Rng.create ~seed () in
  let a = Array.init (Graph.m g) Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Degrees up to 150 put up to three words in a region.  A retirement
   only changes its endpoints' regions, which are checked after every
   retirement; the whole graph is checked at the end. *)
let prop_marks_model =
  QCheck.Test.make ~name:"Arc_marks = bool-array model (any retirement order)"
    ~count:100
    QCheck.(
      quad (int_range 1 12) (int_range 1 150) (int_range 0 1000)
        (int_range 0 1000))
    (fun (n, r, gseed, oseed) ->
      let g = pairing gseed ~n ~r in
      let marks = Arc_marks.create g in
      let model = Array.make (Graph.m g) false in
      let visited = Array.get model in
      let vertex_ok v =
        let live = expected_live g visited v in
        let start = Graph.adj_start g v and stop = Graph.adj_stop g v in
        vertex_agrees g marks visited v
        && (live = []
           || Arc_marks.first_live marks ~start ~stop = List.hd live
              && Arc_marks.last_live marks ~start ~stop
                 = List.nth live (List.length live - 1))
        && List.sort compare (Array.to_list (Arc_marks.incident_edges marks v))
           = List.sort_uniq compare (List.map (Graph.slot_edge g) live)
      in
      marks_agree g marks visited
      && Array.for_all
           (fun e ->
             Arc_marks.retire_slot marks (Graph.edge_slot g e (e land 1));
             model.(e) <- true;
             let u, w = Graph.endpoints g e in
             Arc_marks.edge_retired marks e && vertex_ok u && vertex_ok w)
           (shuffled_edges g oseed)
      && marks_agree g marks visited
      && Bitset.equal
           (Arc_marks.edge_set (Arc_marks.of_edge_set g (Arc_marks.edge_set marks)))
           (Arc_marks.edge_set marks))

(* -- marks = coverage after every step --------------------------------------- *)

(* Every process records each step on its walker's coverage, retiring an
   edge in the marks on its first traversal: after every step each
   coverage's marks, counts and flags hold exactly the edges its walkers
   have traversed, per a boolean-array model (one row per coverage) fed by
   the step events.  Walkers run a fixed step budget, so disconnected
   pairing multigraphs are fine. *)
let prop_marks_track_coverage =
  QCheck.Test.make
    ~name:"marks = coverage after every step (every proc vs traversed edges, W=1,4)"
    ~count:120
    QCheck.(quad (int_range 2 24) (int_range 2 7) (int_range 0 23) (int_range 0 1000))
    (fun (n, r, config, seed) ->
      let g = pairing seed ~n ~r in
      let proc =
        Kengine.[| E_uar; E_lowest; E_highest; Srw; Lazy_srw; Rotor |].(config mod 6)
      in
      let mode = if config / 6 mod 2 = 0 then Kengine.Cooperating else Kengine.Competing in
      let w = if config / 12 = 0 then 1 else 4 in
      let starts = Array.init w (fun i -> (i * 5) mod Graph.n g) in
      let e = Kengine.create ~mode proc g (Rng.create ~seed:(seed + 1) ()) ~starts in
      let row wk = match mode with Kengine.Cooperating -> 0 | Kengine.Competing -> wk in
      let model = Array.init w (fun _ -> Array.make (Graph.m g) false) in
      Kengine.set_observer e
        (Some
           (fun ~walker ev ->
             match ev with
             | Ewalk_obs.Trace.Step { edge; _ } when edge >= 0 ->
                 model.(row walker).(edge) <- true
             | _ -> ()));
      let agree wk =
        let cov = Kengine.walker_coverage e wk and traversed = model.(row wk) in
        marks_agree g (Coverage.marks cov) (Array.get traversed)
        && Coverage.visited_edge_flags cov = traversed
        && Coverage.edges_visited cov
           = Array.fold_left (fun a x -> if x then a + 1 else a) 0 traversed
      in
      let rec go k =
        k = 0
        ||
        let wk = Kengine.cursor e in
        Kengine.step e;
        agree wk && go (k - 1)
      in
      go ((4 * Graph.m g) + 10))

(* -- kernel engine: visited edges vs the oracle, and jobs invariance --------- *)

let oracle_proc = function
  | Kengine.E_uar -> Oracle.Kernel.E_uar
  | Kengine.E_lowest -> Oracle.Kernel.E_lowest
  | Kengine.E_highest -> Oracle.Kernel.E_highest
  | Kengine.Srw -> Oracle.Kernel.Srw_walk
  | Kengine.Lazy_srw -> Oracle.Kernel.Lazy_srw_walk
  | Kengine.Rotor -> Oracle.Kernel.Rotor_walk
  | Kengine.E_adversarial _ -> assert false

(* One engine configuration against the naive oracle in RNG lockstep:
   after every walker step the moved walker must stand where the oracle's
   does, and the visited edges of its coverage — the shared one
   (cooperating) or its own (competing) — must equal the oracle's row,
   edge for edge. *)
let kernel_marks_case proc mode w () =
  let g = Exp_util.regular_graph (Rng.create ~seed:51 ()) ~n:64 ~d:4 in
  let starts = Array.init w (fun i -> (i * 7) mod Graph.n g) in
  let eng = Kengine.create ~mode proc g (Rng.create ~seed:52 ()) ~starts in
  let orc =
    Oracle.Kernel.create
      ~mode:
        (match mode with
        | Kengine.Cooperating -> Oracle.Kernel.Cooperating
        | Kengine.Competing -> Oracle.Kernel.Competing)
      (oracle_proc proc) g (Rng.create ~seed:52 ()) ~starts
  in
  let engine_visited wk e =
    Coverage.edge_visited (Kengine.walker_coverage eng wk) e
  in
  for step = 1 to 200 * w do
    let wk = Kengine.cursor eng in
    Kengine.step eng;
    Oracle.Kernel.step orc;
    if Kengine.walker_position eng wk <> Oracle.Kernel.walker_position orc wk
    then Alcotest.failf "step %d: walker %d diverged from the oracle" step wk;
    for e = 0 to Graph.m g - 1 do
      if engine_visited wk e <> Oracle.Kernel.edge_visited orc wk e then
        Alcotest.failf "step %d: walker %d, edge %d visited flag diverges" step
          wk e
    done
  done

let kernel_jobs_invariance () =
  let g = Exp_util.regular_graph (Rng.create ~seed:61 ()) ~n:128 ~d:4 in
  let run jobs =
    Ewalk_par.Pool.with_pool ~jobs @@ fun pool ->
    let e =
      Kengine.create_spread ~mode:Kengine.Competing Kengine.E_uar g
        (Rng.create ~seed:62 ())
        ~walkers:4
    in
    Kengine.run_rounds ~pool e 500;
    ( Array.copy (Kengine.positions e),
      Array.init 4 (fun w ->
          let cov = Kengine.walker_coverage e w in
          ( Kengine.walker_steps e w,
            Kengine.walker_blue_steps e w,
            Kengine.walker_red_steps e w,
            Coverage.vertices_visited cov,
            Coverage.edges_visited cov,
            Coverage.vertex_cover_step cov )) )
  in
  let pos1, st1 = run 1 and pos4, st4 = run 4 in
  Alcotest.(check (array int)) "positions identical at jobs 1 vs 4" pos1 pos4;
  Alcotest.(check bool) "walker counters identical at jobs 1 vs 4" true
    (st1 = st4)

(* Alcotest truncates a long test name to fit beside the widest group
   label, so that label's width (13, "coverage-sync") fixes how the
   bitset property's name prints in the report. *)
let () =
  Alcotest.run "compact"
    [
      ( "bitset",
        [
          qcheck prop_bitset_reference;
          Alcotest.test_case "edge cases and hex format" `Quick bitset_edges;
        ] );
      ("marks", [ qcheck prop_marks_model ]);
      ("coverage-sync", [ qcheck prop_marks_track_coverage ]);
      ( "kernel",
        [
          Alcotest.test_case "cooperating euar W=1" `Quick
            (kernel_marks_case Kengine.E_uar Kengine.Cooperating 1);
          Alcotest.test_case "cooperating euar W=4" `Quick
            (kernel_marks_case Kengine.E_uar Kengine.Cooperating 4);
          Alcotest.test_case "competing euar W=4" `Quick
            (kernel_marks_case Kengine.E_uar Kengine.Competing 4);
          Alcotest.test_case "cooperating rotor W=4" `Quick
            (kernel_marks_case Kengine.Rotor Kengine.Cooperating 4);
          Alcotest.test_case "competing rotor W=4" `Quick
            (kernel_marks_case Kengine.Rotor Kengine.Competing 4);
          Alcotest.test_case "competing jobs 1 = jobs 4" `Quick
            kernel_jobs_invariance;
        ] );
    ]
