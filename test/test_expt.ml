(* Tests for the experiment harness: tables, sweeps, family specs, the
   registry, and the shared experiment utilities. *)

module Table = Ewalk_expt.Table
module Sweep = Ewalk_expt.Sweep
module Families = Ewalk_expt.Families
module Experiments = Ewalk_expt.Experiments
module Exp_util = Ewalk_expt.Exp_util
module Graph = Ewalk_graph.Graph
module Rng = Ewalk_prng.Rng

(* -- Table ---------------------------------------------------------------- *)

let sample_table =
  {
    Table.id = "demo";
    title = "demo table";
    header = [ "a"; "bb" ];
    rows = [ [ "1"; "2" ]; [ "333"; "4" ] ];
    notes = [ "a note" ];
  }

let table_render () =
  let s = Table.render sample_table in
  Alcotest.(check bool) "has title" true
    (String.length s > 0
    && String.sub s 0 10 = "== demo: d");
  (* All rows rendered. *)
  Alcotest.(check bool) "mentions 333" true
    (String.length s > 0
    &&
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    contains "333" s && contains "a note" s && contains "bb" s)

let table_csv () =
  let csv = Table.to_csv sample_table in
  Alcotest.(check string) "csv" "a,bb\n1,2\n333,4\n" csv

let table_csv_quoting () =
  let t =
    { sample_table with header = [ "x,y"; "q\"q" ]; rows = [ [ "plain"; "b" ] ] }
  in
  let csv = Table.to_csv t in
  Alcotest.(check string) "quoted" "\"x,y\",\"q\"\"q\"\nplain,b\n" csv

let table_cells () =
  Alcotest.(check string) "integer float" "42" (Table.cell_f 42.0);
  Alcotest.(check string) "small" "3.142" (Table.cell_f 3.14159);
  Alcotest.(check string) "scientific" "1.000e-05" (Table.cell_f 1e-5);
  Alcotest.(check string) "int" "7" (Table.cell_i 7);
  Alcotest.(check string) "none" "-" (Table.cell_opt Table.cell_i None);
  Alcotest.(check string) "some" "3" (Table.cell_opt Table.cell_i (Some 3))


let table_markdown () =
  let md = Table.to_markdown sample_table in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "heading" true (contains "### `demo`" md);
  Alcotest.(check bool) "separator" true (contains "|---|---|" md);
  Alcotest.(check bool) "row" true (contains "| 333 | 4 |" md);
  Alcotest.(check bool) "note bullet" true (contains "- a note" md);
  (* Pipes in cells are escaped. *)
  let t = { sample_table with rows = [ [ "a|b"; "c" ] ] } in
  Alcotest.(check bool) "escaped pipe" true
    (contains "a\\|b" (Table.to_markdown t))

(* -- Sweep ---------------------------------------------------------------- *)

let sweep_scales () =
  Alcotest.(check string) "names" "tiny" (Sweep.scale_name Sweep.Tiny);
  List.iter
    (fun scale ->
      Alcotest.(check bool) "non-empty sizes" true
        (List.length (Sweep.cover_sizes scale) > 0
        && List.length (Sweep.edge_sizes scale) > 0
        && List.length (Sweep.spectral_sizes scale) > 0
        && List.length (Sweep.hypercube_dims scale) > 0);
      Alcotest.(check bool) "trials positive" true (Sweep.trials scale > 0))
    [ Sweep.Tiny; Sweep.Default; Sweep.Full ];
  Alcotest.(check int) "paper trials at full" 5 (Sweep.trials Sweep.Full)

let sweep_trial_rngs_deterministic () =
  let stream rng = Array.init 8 (fun _ -> Rng.bits64 rng) in
  let a = Sweep.trial_rngs ~seed:5 ~trials:3 in
  let b = Sweep.trial_rngs ~seed:5 ~trials:3 in
  for i = 0 to 2 do
    Alcotest.(check (array int64)) "same per-trial stream" (stream a.(i))
      (stream b.(i))
  done;
  (* Different trials see different streams. *)
  let c = Sweep.trial_rngs ~seed:5 ~trials:2 in
  Alcotest.(check bool) "trials differ" true
    (stream c.(0) <> stream c.(1))

let sweep_trial_rngs_rejects_nonpositive () =
  Alcotest.check_raises "zero trials"
    (Invalid_argument "Sweep.trial_rngs: trials must be positive (got 0)")
    (fun () -> ignore (Sweep.trial_rngs ~seed:1 ~trials:0));
  Alcotest.check_raises "negative trials"
    (Invalid_argument "Sweep.trial_rngs: trials must be positive (got -3)")
    (fun () -> ignore (Sweep.trial_rngs ~seed:1 ~trials:(-3)));
  Alcotest.check_raises "mean_of_trials inherits the check"
    (Invalid_argument "Sweep.trial_rngs: trials must be positive (got 0)")
    (fun () -> ignore (Sweep.mean_of_trials ~seed:1 ~trials:0 (fun _ -> 0.0)));
  Alcotest.check_raises "mean_cover_of_trials inherits the check"
    (Invalid_argument "Sweep.trial_rngs: trials must be positive (got -1)")
    (fun () ->
      ignore (Sweep.mean_cover_of_trials ~seed:1 ~trials:(-1) (fun _ -> None)))

let sweep_mean_of_trials () =
  let s = Sweep.mean_of_trials ~seed:1 ~trials:4 (fun _ -> 2.5) in
  Alcotest.(check (float 1e-12)) "constant mean" 2.5
    s.Ewalk_analysis.Stats.mean;
  Alcotest.(check int) "count" 4 s.Ewalk_analysis.Stats.count

let sweep_mean_cover () =
  (match Sweep.mean_cover_of_trials ~seed:1 ~trials:3 (fun _ -> Some 10) with
  | Some s ->
      Alcotest.(check (float 1e-12)) "mean" 10.0 s.Ewalk_analysis.Stats.mean
  | None -> Alcotest.fail "all trials succeeded");
  let calls = ref 0 in
  (match
     Sweep.mean_cover_of_trials ~seed:1 ~trials:3 (fun _ ->
         incr calls;
         if !calls = 2 then None else Some 10)
   with
  | Some _ -> Alcotest.fail "a capped trial must poison the mean"
  | None -> ())

(* -- Families ------------------------------------------------------------- *)

let families_all_specs_build () =
  let rng = Rng.create ~seed:1 () in
  List.iter
    (fun spec ->
      let g = Families.build spec rng ~n:64 in
      Alcotest.(check bool) (spec ^ " non-empty") true (Graph.n g > 0))
    [
      "regular:4";
      "torus";
      "grid";
      "hypercube";
      "cycle";
      "double-cycle";
      "complete";
      "margulis";
      "cycle-union:2";
      "chordal";
      "gnp:0.1";
      "geometric:0.3";
      "lollipop";
    ]

let families_bad_specs () =
  let rng = Rng.create () in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Families: unknown spec \"nope\"") (fun () ->
      ignore (Families.build "nope" rng ~n:10));
  Alcotest.check_raises "bad param"
    (Invalid_argument "Families: bad parameter in \"regular:x\"") (fun () ->
      ignore (Families.build "regular:x" rng ~n:10))

let families_known_list () =
  Alcotest.(check bool) "known non-empty" true (List.length Families.known > 5)

(* -- Registry --------------------------------------------------------------- *)

let registry_complete () =
  (* DESIGN.md section 4 lists 27 experiments. *)
  Alcotest.(check int) "27 experiments" 27 (List.length Experiments.all);
  let ids = Experiments.ids () in
  List.iter
    (fun id ->
      match Experiments.find id with
      | Some e -> Alcotest.(check string) "id matches" id e.Experiments.id
      | None -> Alcotest.fail ("missing " ^ id))
    ids;
  Alcotest.(check bool) "unknown id" true (Experiments.find "nope" = None);
  (* Ids are unique. *)
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length sorted)

let registry_paper_items_nonempty () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "paper item documented" true
        (String.length e.Experiments.paper_item > 0))
    Experiments.all

(* -- Exp_util ----------------------------------------------------------------- *)

let exp_util_cover_helpers () =
  let rng = Rng.create ~seed:2 () in
  let g = Exp_util.regular_graph rng ~n:60 ~d:4 in
  Alcotest.(check bool) "graph shape" true
    (Graph.n g = 60 && Graph.is_simple g);
  (match Exp_util.vertex_cover_eprocess rng g with
  | Some t -> Alcotest.(check bool) "covers fast" true (t >= 59)
  | None -> Alcotest.fail "capped");
  (match Exp_util.edge_cover_eprocess rng g with
  | Some t -> Alcotest.(check bool) "edge cover >= m" true (t >= Graph.m g)
  | None -> Alcotest.fail "capped");
  (match Exp_util.vertex_cover_srw rng g with
  | Some _ -> ()
  | None -> Alcotest.fail "srw capped");
  match Exp_util.edge_cover_srw rng g with
  | Some _ -> ()
  | None -> Alcotest.fail "srw edge capped"

let exp_util_adversaries () =
  let rng = Rng.create ~seed:3 () in
  let g = Exp_util.regular_graph rng ~n:40 ~d:4 in
  let visits = Ewalk.Visits.create g in
  List.iter
    (fun (adv, visits) ->
      let rule = Ewalk.Eprocess.Adversarial adv in
      match Exp_util.vertex_cover_eprocess ~rule ?visits rng g with
      | Some _ -> ()
      | None -> Alcotest.fail "adversarial run capped")
    [
      (Exp_util.adversary_stay_explored visits, Some visits);
      (Exp_util.adversary_min_blue, None);
    ]

(* -- Wall-time regression guards --------------------------------------------- *)

let spectral_p1_tiny_fast () =
  (* spectral-p1 at Tiny once took ~10s because the dense O(n^3) Jacobi
     eigensolver handled the lambda_2 probe; the Lanczos route brings it
     under half a second.  Guard the fix: the budget below is ~10x the
     fixed cost and well under the regressed cost, so it trips if the
     dense path ever comes back without drowning CI in flakiness. *)
  match Experiments.find "spectral-p1" with
  | None -> Alcotest.fail "spectral-p1 missing from registry"
  | Some e ->
      let table, seconds =
        Experiments.run_timed e ~scale:Sweep.Tiny ~seed:7
      in
      Alcotest.(check bool) "produces rows" true
        (List.length table.Table.rows > 0);
      Alcotest.(check bool)
        (Printf.sprintf "tiny run under budget (took %.2fs)" seconds)
        true (seconds < 5.0)

let () =
  Alcotest.run "expt"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "csv" `Quick table_csv;
          Alcotest.test_case "csv quoting" `Quick table_csv_quoting;
          Alcotest.test_case "cells" `Quick table_cells;
          Alcotest.test_case "markdown" `Quick table_markdown;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "scales" `Quick sweep_scales;
          Alcotest.test_case "trial rngs" `Quick sweep_trial_rngs_deterministic;
          Alcotest.test_case "trial rngs reject nonpositive" `Quick
            sweep_trial_rngs_rejects_nonpositive;
          Alcotest.test_case "mean of trials" `Quick sweep_mean_of_trials;
          Alcotest.test_case "mean cover poisoning" `Quick sweep_mean_cover;
        ] );
      ( "families",
        [
          Alcotest.test_case "all specs" `Quick families_all_specs_build;
          Alcotest.test_case "bad specs" `Quick families_bad_specs;
          Alcotest.test_case "known list" `Quick families_known_list;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick registry_complete;
          Alcotest.test_case "paper items" `Quick registry_paper_items_nonempty;
        ] );
      ( "exp_util",
        [
          Alcotest.test_case "cover helpers" `Quick exp_util_cover_helpers;
          Alcotest.test_case "adversaries" `Quick exp_util_adversaries;
        ] );
      ( "perf",
        [
          Alcotest.test_case "spectral-p1 tiny wall-time" `Slow
            spectral_p1_tiny_fast;
        ] );
    ]
