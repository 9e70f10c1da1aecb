type entry = {
  id : string;
  paper_item : string;
  run : pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t;
  run_walkers :
    (pool:Ewalk_par.Pool.t option ->
    scale:Sweep.scale ->
    seed:int ->
    walkers:int ->
    Table.t)
    option;
}

let entry ?run_walkers id paper_item run = { id; paper_item; run; run_walkers }

let all =
  [
    entry "fig1" "Figure 1" Exp_cover.fig1;
    entry "thm1-scaling" "Theorem 1 / eq. (1) / Corollary 2" Exp_cover.thm1_scaling;
    entry "rule-independence" "Theorem 1 (rule A arbitrary)" Exp_cover.rule_independence;
    entry "srw-lower" "Theorem 5 (Radzik) / Feige" Exp_cover.srw_lower;
    entry "edge-cover-sandwich" "eq. (3) / Observation 12" Exp_edge.edge_cover_sandwich;
    entry "hypercube-edge" "Section 1 hypercube example" Exp_edge.hypercube_edge;
    entry "grw-bound" "eq. (2) (Orenshtein-Shinkar)" Exp_edge.grw_bound;
    entry "cor4-edge" "Corollary 4" Exp_edge.cor4_edge;
    entry "spectral-p1" "Property P1 (Friedman)" Exp_structure.spectral_p1;
    entry "density-p2" "Property P2" Exp_structure.density_p2;
    entry "ell-good" "ell-goodness (Corollary 2's proof)" Exp_structure.ell_good;
    entry "blue-invariants" "Observations 10/11" Exp_structure.blue_invariants;
    entry "stars-r3" "Section 5 (odd degree intuition)" Exp_structure.stars_r3;
    entry "cycle-census" "Corollary 4's proof (E N_k)" Exp_structure.cycle_census;
    entry "process-compare" "Section 1 related work" Exp_cover.process_compare;
    entry "blanket-r-visits" "eq. (4) (blanket time)" Exp_cover.blanket_r_visits;
    entry "odd-even-frontier" "Section 5 (even degree constraint)" Exp_cover.odd_even_frontier;
    entry "hitting-bounds" "Lemma 6 / Corollary 9 / return-time identity" Exp_extra.hitting_bounds;
    entry "mixing-decay" "eq. (5) (convergence to stationarity)" Exp_extra.mixing_decay;
    entry "matthews-bound" "Section 2.2 toolkit (Matthews/Kahn et al.)" Exp_extra.matthews_cover;
    entry "euler-overhead" "eq. (3) floor (Euler tour optimum)" Exp_extra.euler_overhead;
    entry ~run_walkers:Exp_extra.team_speedup_at "team-speedup"
      "extension: k walkers, shared marks" Exp_extra.team_speedup;
    entry ~run_walkers:Exp_extra.kernel_modes_at "kernel-modes"
      "extension: lockstep kernel, cooperating vs competing marks"
      Exp_extra.kernel_modes;
    entry "coverage-profile" "Section 5 mechanism (straggler decay)" Exp_extra.coverage_profile;
    entry "concentration" "related work (Avin-Krishnamachari concentration)" Exp_extra.concentration;
    entry "doubled-odd" "Theorem 1 hypothesis isolation (negative control)" Exp_extra.doubled_odd;
    entry "high-girth" "Theorem 3 (high girth even degree expanders)" Exp_extra.high_girth;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

let run_timed ?pool ?walkers e ~scale ~seed =
  Ewalk_obs.Prof.span_ambient ("experiment:" ^ e.id) @@ fun () ->
  let go () =
    match (walkers, e.run_walkers) with
    | Some w, Some f -> f ~pool ~scale ~seed ~walkers:w
    | _ -> e.run ~pool ~scale ~seed
  in
  let t0 = Ewalk_obs.Clock.now_ns () in
  let table = go () in
  (table, Ewalk_obs.Clock.elapsed_s t0)

let record_run metrics e ~table ~seconds =
  let open Ewalk_obs.Metrics in
  incr (counter metrics "experiments_run");
  add (counter metrics "table_rows") (List.length table.Table.rows);
  set (gauge metrics ("seconds/" ^ e.id)) seconds
