(* Tests for Ewalk_check: the invariant monitor, the naive oracles, the
   trace replay verifier, and the model-based differential harness —
   including the mutation smoke tests that prove the checkers actually
   catch broken walks, not just accept correct ones. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Gen_random = Ewalk_graph.Gen_random
module Traversal = Ewalk_graph.Traversal
module Rng = Ewalk_prng.Rng
module Trace = Ewalk_obs.Trace
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Rotor = Ewalk.Rotor
module Engine = Ewalk.Engine
module Cover = Ewalk.Cover
module Observe = Ewalk.Observe
module Invariant = Ewalk_check.Invariant
module Oracle = Ewalk_check.Oracle
module Replay = Ewalk_check.Replay
module Differential = Ewalk_check.Differential

let qcheck = QCheck_alcotest.to_alcotest

(* -- helpers ---------------------------------------------------------------- *)

let edge_between g u v =
  match
    Graph.fold_edges g
      (fun acc e a b ->
        if acc = None && ((a = u && b = v) || (a = v && b = u)) then Some e
        else acc)
      None
  with
  | Some e -> e
  | None -> Alcotest.failf "no edge between %d and %d" u v

(* Run a walk process to vertex cover, collecting its full event stream
   the same way `eproc trace` does (native observer + generic
   instrumentation). *)
let collect_events g make =
  let events = ref [] in
  let sink = Trace.of_fun (fun ev -> events := ev :: !events) in
  let obs = Observe.create ~sink () in
  let p, attach = make () in
  attach obs;
  let p = Observe.instrument obs p in
  let result = Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) p in
  Observe.finish obs p;
  (List.rev !events, result)

let make_eprocess ?rule g seed () =
  let t = Eprocess.create ?rule g (Rng.create ~seed ()) ~start:0 in
  (Eprocess.process t, fun obs -> Observe.attach obs t)

let make_srw g seed () =
  let t = Srw.create g (Rng.create ~seed ()) ~start:0 in
  (Srw.process t, fun obs -> Observe.attach obs t)

let make_lazy_srw g seed () =
  let t = Srw.create_lazy g (Rng.create ~seed ()) ~start:0 in
  (Srw.process t, fun obs -> Observe.attach obs t)

let make_rotor g seed () =
  let t = Rotor.create ~randomize_rotors:true g (Rng.create ~seed ()) ~start:0 in
  (Rotor.process t, fun obs -> Observe.attach obs t)

let kind_t =
  Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (Invariant.kind_name k))
    ( = )

(* Replace the first occurrence of [pat] in [s] (identity when absent). *)
let replace_once ~pat ~by s =
  let n = String.length s and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - m - i)

let expect_kind what kind = function
  | Some v -> Alcotest.check kind_t what kind v.Invariant.v_kind
  | None -> Alcotest.failf "%s: no violation reported" what

(* -- oracles ---------------------------------------------------------------- *)

(* The oracle E-process is itself subject to the invariants: feed its own
   trajectory through the monitor. *)
let oracle_self_consistent () =
  List.iter
    (fun (label, g) ->
      let orc = Oracle.Eprocess.create g (Rng.create ~seed:9 ()) ~start:0 in
      let inv = Invariant.create g ~start:0 in
      let steps = ref 0 in
      while (not (Oracle.Eprocess.all_vertices_visited orc)) && !steps < 100_000 do
        let before = Oracle.Eprocess.position orc in
        let blue_before = Oracle.Eprocess.blue_steps orc in
        Oracle.Eprocess.step orc;
        incr steps;
        (* Recover the traversed edge from the oracle's own bookkeeping:
           the landing vertex plus whether the blue count moved. *)
        let after = Oracle.Eprocess.position orc in
        let blue = Oracle.Eprocess.blue_steps orc > blue_before in
        let edge =
          (* the unique incident (before, after) edge consistent with the
             visited set change; for the monitor's purposes any incident
             edge with the right endpoints and visited status works *)
          match
            Graph.fold_neighbors g before
              (fun acc w e ->
                if acc = None && w = after
                   && Oracle.Eprocess.edge_visited orc e
                   && (not blue) = Invariant.edge_visited inv e
                then Some e
                else acc)
              None
          with
          | Some e -> e
          | None -> edge_between g before after
        in
        match Invariant.on_step inv ~step:!steps ~vertex:after ~edge ~blue with
        | Some v ->
            Alcotest.failf "%s: oracle violated invariant: %s" label
              (Invariant.violation_to_string v)
        | None -> ()
      done;
      Alcotest.(check bool) (label ^ " covered") true
        (Oracle.Eprocess.all_vertices_visited orc))
    [
      ("cycle16", Gen_classic.cycle 16);
      ("double-cycle10", Gen_classic.double_cycle 10);
      ("petersen", Gen_classic.petersen ());
    ]

(* -- differential harness --------------------------------------------------- *)

let stock_suite_passes () =
  let cases = Differential.stock_cases ~seeds:[ 1; 2 ] () in
  let r = Differential.run_suite ~jobs:1 cases in
  (match r.Differential.failures with
  | [] -> ()
  | (name, msg) :: _ ->
      Alcotest.failf "%d case(s) failed; first: %s: %s"
        (List.length r.Differential.failures)
        name msg);
  Alcotest.(check int) "all cases ran" (List.length cases) r.Differential.cases;
  Alcotest.(check bool) "steps verified" true (r.Differential.steps > 0)

let suite_jobs_equivalence () =
  let r1 = Differential.run_suite ~jobs:1 (Differential.stock_cases ~seeds:[ 1 ] ()) in
  let r4 = Differential.run_suite ~jobs:4 (Differential.stock_cases ~seeds:[ 1 ] ()) in
  Alcotest.(check int) "cases" r1.Differential.cases r4.Differential.cases;
  Alcotest.(check int) "steps" r1.Differential.steps r4.Differential.steps;
  Alcotest.(check (list (pair string string)))
    "failures" r1.Differential.failures r4.Differential.failures

(* A case whose production step raises (here: the walk starts on an
   isolated vertex) fails alone, named in the report; the valid case
   beside it still runs and counts, in both batteries. *)
let raising_case_isolated () =
  let isolated = Graph.of_edges ~n:3 [ (1, 2) ] in
  let bad =
    { Differential.label = "isolated-start"; graph = isolated; seed = 1;
      max_steps = 100; mode = Differential.Uar }
  in
  let good =
    { Differential.label = "cycle8"; graph = Gen_classic.cycle 8; seed = 1;
      max_steps = 10_000; mode = Differential.Srw_walk }
  in
  let r = Differential.run_suite ~jobs:2 [ bad; good ] in
  Alcotest.(check int) "both cases ran" 2 r.Differential.cases;
  Alcotest.(check (list string)) "the raising case is named"
    [ Differential.case_name bad ]
    (List.map fst r.Differential.failures);
  Alcotest.(check bool) "the failure says it raised" true
    (String.starts_with ~prefix:"raised"
       (snd (List.hd r.Differential.failures)));
  Alcotest.(check bool) "the valid case is counted" true (r.Differential.steps > 0);
  let kcase label graph =
    { Differential.k_label = label; k_graph = graph; k_seed = 1; k_walkers = 1;
      k_mode = Engine.Cooperating; k_proc = Engine.E_uar; k_max_steps = 10_000 }
  in
  let kbad = kcase "isolated-start" isolated in
  let kr =
    Differential.run_kernel_suite ~jobs:2
      [ kbad; kcase "cycle8" (Gen_classic.cycle 8) ]
  in
  Alcotest.(check (list string)) "the raising kernel case is named"
    [ Differential.kernel_case_name kbad ]
    (List.map fst kr.Differential.failures);
  Alcotest.(check bool) "the valid kernel case is counted" true
    (kr.Differential.steps > 0)

(* -- invariant monitor: mutation smoke tests ------------------------------- *)

(* Deliberately broken step streams on the 4-cycle (vertices 0-3). *)
let mutation_synthetic_streams () =
  let g = Gen_classic.cycle 4 in
  let e01 = edge_between g 0 1 and e12 = edge_between g 1 2 in
  (* anti-preference: go back along the visited edge while vertex 1 still
     has an unvisited one *)
  let inv = Invariant.create g ~start:0 in
  Alcotest.(check bool) "honest blue step accepted" true
    (Invariant.on_step inv ~step:1 ~vertex:1 ~edge:e01 ~blue:true = None);
  expect_kind "anti-preference red step" Invariant.Preference
    (Invariant.on_step inv ~step:2 ~vertex:0 ~edge:e01 ~blue:false);
  (* blue flag on an already-visited edge *)
  let inv = Invariant.create g ~start:0 in
  ignore (Invariant.on_step inv ~step:1 ~vertex:1 ~edge:e01 ~blue:true);
  expect_kind "blue lie" Invariant.Blue_flag
    (Invariant.on_step inv ~step:2 ~vertex:0 ~edge:e01 ~blue:true);
  (* non-incident edge *)
  let inv = Invariant.create g ~start:0 in
  expect_kind "non-incident edge" Invariant.Edge_invalid
    (Invariant.on_step inv ~step:1 ~vertex:2 ~edge:e12 ~blue:true);
  (* edge out of range *)
  let inv = Invariant.create g ~start:0 in
  expect_kind "edge out of range" Invariant.Edge_invalid
    (Invariant.on_step inv ~step:1 ~vertex:1 ~edge:(Graph.m g) ~blue:true);
  (* wrong landing vertex *)
  let inv = Invariant.create g ~start:0 in
  expect_kind "wrong endpoint" Invariant.Edge_invalid
    (Invariant.on_step inv ~step:1 ~vertex:2 ~edge:e01 ~blue:true);
  (* skipped step index *)
  let inv = Invariant.create g ~start:0 in
  expect_kind "skipped step" Invariant.Schema
    (Invariant.on_step inv ~step:2 ~vertex:1 ~edge:e01 ~blue:true);
  (* deterministic rule: the wrong unvisited edge *)
  let inv = Invariant.create ~rule:Invariant.Lowest_slot g ~start:0 in
  match Invariant.unvisited_incident inv 0 with
  | _ :: second :: _ ->
      let w = Graph.opposite g second 0 in
      expect_kind "wrong slot for lowest rule" Invariant.Rule
        (Invariant.on_step inv ~step:1 ~vertex:w ~edge:second ~blue:true)
  | _ -> Alcotest.fail "cycle vertex should have two unvisited edges"

(* A live production walk with a deliberately broken (rule-violating)
   adversarial choice function is flagged by the rule monitor: the
   differential harness's detection path, end to end. *)
let mutation_broken_rule_detected () =
  let g = Gen_classic.cycle 16 in
  let prod =
    Eprocess.create
      ~rule:(Eprocess.Adversarial (fun _ cands -> Array.length cands - 1))
      g (Rng.create ~seed:3 ()) ~start:0
  in
  let inv = Invariant.create ~rule:Invariant.Lowest_slot g ~start:0 in
  let first = ref None in
  Engine.set_observer prod
    (Some
       (fun ~walker:_ ev ->
         match ev with
         | Trace.Step { step; vertex; edge; blue } -> (
             match Invariant.on_step inv ~step ~vertex ~edge ~blue with
             | Some v when !first = None -> first := Some v
             | _ -> ())
         | _ -> ()));
  for _ = 1 to 40 do
    Eprocess.step prod
  done;
  expect_kind "broken rule caught" Invariant.Rule !first

(* An unmonitored-looking correct walk produces zero violations on an
   even-degree multigraph — including the blue-parity invariant. *)
let monitor_accepts_correct_walks () =
  List.iter
    (fun (label, g) ->
      let prod = Eprocess.create g (Rng.create ~seed:21 ()) ~start:0 in
      let inv = Invariant.create g ~start:0 in
      Engine.set_observer prod
        (Some
           (fun ~walker:_ ev ->
             match ev with
             | Trace.Step { step; vertex; edge; blue } ->
                 ignore (Invariant.on_step inv ~step ~vertex ~edge ~blue)
             | _ -> ()));
      let cov = Eprocess.coverage prod in
      let steps = ref 0 in
      while (not (Ewalk.Coverage.all_vertices_visited cov)) && !steps < 100_000 do
        Eprocess.step prod;
        incr steps
      done;
      match Invariant.violations inv with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s: unexpected violation: %s" label
            (Invariant.violation_to_string v))
    [
      ("double-cycle14 (parallel edges)", Gen_classic.double_cycle 14);
      ("hypercube4", Gen_classic.hypercube 4);
      ("petersen (odd degrees)", Gen_classic.petersen ());
      ("lollipop6-6", Gen_classic.lollipop 6 6);
    ]

(* -- replay verifier -------------------------------------------------------- *)

let specs g =
  [
    ("e-process(uar)", make_eprocess g 5);
    ("e-process(lowest)", make_eprocess ~rule:Eprocess.Lowest_slot g 5);
    ("e-process(highest)", make_eprocess ~rule:Eprocess.Highest_slot g 5);
    ("srw", make_srw g 5);
    ("lazy-srw", make_lazy_srw g 5);
    ("rotor", make_rotor g 5);
  ]

let replay_accepts_stock_streams () =
  let g = Gen_regular.random_regular_connected (Rng.create ~seed:11 ()) 40 4 in
  List.iter
    (fun (label, make) ->
      let events, result = collect_events g make in
      (* JSONL round-trip: serialise each event, parse it back. *)
      let parsed =
        List.map
          (fun ev ->
            match Trace.event_of_string (Trace.event_to_string ev) with
            | Ok e -> e
            | Error e -> Alcotest.failf "%s: reparse failed: %s" label e)
          events
      in
      Alcotest.(check bool) (label ^ ": round-trip identical") true
        (parsed = events);
      match Replay.verify_events g parsed with
      | Error v ->
          Alcotest.failf "%s: replay rejected: %s" label
            (Invariant.violation_to_string v)
      | Ok s ->
          Alcotest.(check bool) (label ^ ": covered") true s.Replay.covered;
          Alcotest.(check bool) (label ^ ": steps seen") true s.Replay.has_steps;
          (match result with
          | Some t ->
              Alcotest.(check (option int))
                (label ^ ": cover step") (Some t) s.Replay.cover_step;
              Alcotest.(check int) (label ^ ": step count") t s.Replay.steps
          | None -> Alcotest.failf "%s: walk hit its cap" label))
    (specs g)

let replay_rejects_tampered_streams () =
  let g = Gen_classic.cycle 12 in
  let events, _ = collect_events g (make_eprocess g 5) in
  let expect_error what tamper kind =
    match Replay.verify_events g (tamper events) with
    | Ok _ -> Alcotest.failf "%s: tampered stream accepted" what
    | Error v -> Alcotest.check kind_t what kind v.Invariant.v_kind
  in
  (* flip a blue step red: the walk now "ignores" an unvisited edge *)
  expect_error "blue flag cleared"
    (List.map (function
      | Trace.Step { step = 1; vertex; edge; blue = true } ->
          Trace.Step { step = 1; vertex; edge; blue = false }
      | ev -> ev))
    Invariant.Preference;
  (* make a step claim a non-incident edge *)
  expect_error "edge replaced"
    (List.map (function
      | Trace.Step { step = 1; vertex; edge; blue } ->
          Trace.Step { step = 1; vertex; edge = (edge + 3) mod Graph.m g; blue }
      | ev -> ev))
    Invariant.Edge_invalid;
  (* drop the run_end: a truncated stream *)
  expect_error "run_end dropped"
    (List.filter (function Trace.Run_end _ -> false | _ -> true))
    Invariant.Schema;
  (* duplicate run_start mid-stream *)
  expect_error "duplicate run_start"
    (fun evs ->
      match evs with
      | (Trace.Run_start _ as s) :: rest -> s :: s :: rest
      | _ -> evs)
    Invariant.Schema;
  (* inflate a milestone count *)
  expect_error "milestone count inflated"
    (List.map (function
      | Trace.Milestone { step; kind; percent; count; total } ->
          Trace.Milestone { step; kind; percent; count = count + 1; total }
      | ev -> ev))
    Invariant.Coverage;
  (* events after run_end *)
  expect_error "event after run_end"
    (fun evs -> evs @ [ Trace.Run_end { steps = 0; covered = false } ])
    Invariant.Schema

let replay_rejects_tampered_jsonl_line () =
  let g = Gen_classic.cycle 8 in
  let events, _ = collect_events g (make_eprocess g 2) in
  let lines = List.map Trace.event_to_string events in
  (* corrupt one step line at the JSON level, as a file-tamperer would *)
  let tampered =
    List.map
      (fun line ->
        if
          String.length line > 15
          && String.sub line 0 15 = {|{"type":"step",|}
        then replace_once ~pat:{|"blue":true|} ~by:{|"blue":false|} line
        else line)
      lines
  in
  let verifier = Replay.create g in
  let saw_violation = ref false in
  List.iter
    (fun line ->
      if not !saw_violation then
        match Trace.event_of_string line with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok ev -> (
            match Replay.feed verifier ev with
            | Ok () -> ()
            | Error _ -> saw_violation := true))
    tampered;
  Alcotest.(check bool) "tampered JSONL flagged" true !saw_violation

let replay_run_info_placement () =
  let g = Gen_classic.cycle 12 in
  let events, _ = collect_events g (make_eprocess g 5) in
  let info =
    Trace.Run_info { run_id = "r0123456789abcdef"; parent_run_id = None }
  in
  (* Prologue placement (right after run_start) is accepted and surfaces
     in the summary. *)
  (match
     Replay.verify_events g
       (match events with s :: rest -> s :: info :: rest | [] -> [])
   with
  | Error v -> Alcotest.failf "prologue run_info rejected: %s" (Invariant.violation_to_string v)
  | Ok s ->
      Alcotest.(check (option string))
        "summary carries run_id" (Some "r0123456789abcdef") s.Replay.run_id;
      Alcotest.(check bool) "summary string mentions run" true
        (let str = Replay.summary_to_string s in
         let nn = String.length "r0123456789abcdef" in
         let rec go i =
           i + nn <= String.length str
           && (String.sub str i nn = "r0123456789abcdef" || go (i + 1))
         in
         go 0));
  let expect_schema what evs =
    match Replay.verify_events g evs with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error v -> Alcotest.check kind_t what Invariant.Schema v.Invariant.v_kind
  in
  (* Mid-stream, duplicated, or empty-id run_info are schema violations. *)
  expect_schema "run_info after steps" (events @ [ info ]);
  expect_schema "duplicate run_info"
    (match events with s :: rest -> s :: info :: info :: rest | [] -> []);
  expect_schema "empty run_id"
    (match events with
    | s :: rest ->
        s
        :: Trace.Run_info { run_id = ""; parent_run_id = None }
        :: rest
    | [] -> [])

(* -- model-based property --------------------------------------------------- *)

(* Generated graphs across the families the theorems distinguish, a random
   mode, a random seed: production must match the oracle / monitor.
   QCheck shrinks the tuple toward a minimal failing configuration. *)
let prop_differential_generated =
  QCheck.Test.make ~name:"production matches oracle on generated graphs"
    ~count:50
    QCheck.(
      quad (int_range 0 4) (int_range 0 4) (int_range 8 36) (int_range 0 999))
    (fun (fam, mode_i, size, seed) ->
      let grng = Rng.create ~seed:(1 + (seed * 5) + fam) () in
      let g =
        match fam with
        | 0 -> Gen_regular.random_regular_connected grng (max 10 size) 4
        | 1 ->
            let s = max 10 size in
            let s = if s mod 2 = 1 then s + 1 else s in
            Gen_regular.random_regular_connected grng s 3
        | 2 -> Gen_classic.hypercube (3 + (size mod 3))
        | 3 -> Gen_classic.lollipop (4 + (size mod 6)) (4 + (seed mod 6))
        | _ -> Gen_random.gnp grng (max 8 size) 0.3
      in
      (* disconnected or degenerate draws are rejected, not failed *)
      QCheck.assume (Graph.n g > 0 && Graph.min_degree g > 0);
      QCheck.assume (Traversal.is_connected g);
      let mode = List.nth Differential.all_modes mode_i in
      let case =
        {
          Differential.label = Printf.sprintf "generated-fam%d" fam;
          graph = g;
          seed;
          max_steps = 500_000;
          mode;
        }
      in
      match Differential.run_case case with
      | Ok _ -> true
      | Error msg ->
          QCheck.Test.fail_reportf "%s (n=%d m=%d): %s"
            (Differential.case_name case)
            (Graph.n g) (Graph.m g) msg)

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [ Alcotest.test_case "self-consistent" `Quick oracle_self_consistent ] );
      ( "differential",
        [
          Alcotest.test_case "stock suite passes" `Quick stock_suite_passes;
          Alcotest.test_case "jobs=1 equals jobs=4" `Quick
            suite_jobs_equivalence;
          Alcotest.test_case "a raising case fails alone" `Quick
            raising_case_isolated;
          qcheck prop_differential_generated;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "synthetic broken streams" `Quick
            mutation_synthetic_streams;
          Alcotest.test_case "broken rule detected live" `Quick
            mutation_broken_rule_detected;
          Alcotest.test_case "correct walks accepted" `Quick
            monitor_accepts_correct_walks;
        ] );
      ( "replay",
        [
          Alcotest.test_case "accepts stock streams" `Quick
            replay_accepts_stock_streams;
          Alcotest.test_case "rejects tampered streams" `Quick
            replay_rejects_tampered_streams;
          Alcotest.test_case "rejects tampered JSONL" `Quick
            replay_rejects_tampered_jsonl_line;
          Alcotest.test_case "run_info prologue placement" `Quick
            replay_run_info_placement;
        ] );
    ]
