open Ewalk_graph
module Spectral = Ewalk_spectral.Spectral
module Hitting = Ewalk_spectral.Hitting
module Stats = Ewalk_analysis.Stats

let fl = float_of_int

let point_seed seed tag n = seed + (32_452_843 * tag) + n

let small_families ~scale ~seed =
  let n = match scale with Sweep.Tiny -> 60 | _ -> 150 in
  let rng = Ewalk_prng.Rng.create ~seed:(point_seed seed 1 n) () in
  [
    ("random-4-regular", Gen_regular.random_regular_connected rng n 4);
    ("cycle", Gen_classic.cycle n);
    ( "torus",
      let side = max 3 (int_of_float (sqrt (fl n))) in
      Gen_classic.torus2d side side );
    ("complete", Gen_classic.complete (min n 60));
    ("lollipop", Gen_classic.lollipop (2 * n / 3) (n / 3));
  ]

let hitting_bounds ~pool:_ ~scale ~seed =
  let rows =
    List.map
      (fun (name, g) ->
        let report = Spectral.gap_exact g in
        let gap = Float.max report.Spectral.gap 1e-12 in
        let pi = Spectral.stationary g in
        (* Worst vertex for E_pi H_v, and the Lemma 6 bound at it. *)
        let worst = ref 0.0 and worst_bound = ref 0.0 in
        let return_err = ref 0.0 in
        for v = 0 to Graph.n g - 1 do
          let measured = Hitting.hitting_from_stationary g v in
          let bound = 1.0 /. (gap *. pi.(v)) in
          if measured > !worst then begin
            worst := measured;
            worst_bound := bound
          end;
          (* Return-time identity E_v T_v+ = 1/pi_v. *)
          let ret = Hitting.expected_return_time g v in
          let err = Float.abs ((ret *. pi.(v)) -. 1.0) in
          if err > !return_err then return_err := err
        done;
        (* Corollary 9 on a small set. *)
        let s = [ 0; 1 ] in
        let d_s = List.fold_left (fun acc v -> acc + Graph.degree g v) 0 s in
        let set_bound =
          2.0 *. fl (Graph.m g) /. (fl d_s *. gap)
        in
        (* Exact E_pi H_S via contraction. *)
        let contracted, _, gamma_v = Subgraph.contract g s in
        let set_measured =
          if Traversal.is_connected contracted then
            Hitting.hitting_from_stationary contracted gamma_v
          else Float.nan
        in
        [
          name;
          Table.cell_i (Graph.n g);
          Table.cell_f !worst;
          Table.cell_f !worst_bound;
          (if !worst <= !worst_bound +. 1e-6 then "yes" else "NO");
          Table.cell_f set_measured;
          Table.cell_f set_bound;
          Table.cell_f !return_err;
        ])
      (small_families ~scale ~seed)
  in
  {
    Table.id = "hitting-bounds";
    title =
      "Lemma 6 / Corollary 9: exact hitting times from stationarity vs spectral bounds";
    header =
      [
        "graph";
        "n";
        "max EpiHv";
        "1/(gap piv)";
        "within";
        "EpiHS";
        "2m/(dS gap)";
        "return-id err";
      ];
    rows;
    notes =
      [
        "'within' checks Lemma 6 at the worst vertex; the set columns check Corollary 9 for S = {0,1}";
        "return-id err = max_v |pi_v E_v T_v+ - 1| must be ~0 (the identity in Theorem 5's proof)";
      ];
  }

let mixing_decay ~pool:_ ~scale ~seed =
  let n = match scale with Sweep.Tiny -> 40 | _ -> 100 in
  let rng = Ewalk_prng.Rng.create ~seed:(point_seed seed 2 n) () in
  let g = Gen_regular.random_regular_connected rng n 4 in
  (* Lazy walk so lambda_max = lambda_2 of the lazy chain. *)
  let lazy_op = Spectral.lazy_normalized_adjacency g in
  let dense = Ewalk_linalg.Csr.to_dense lazy_op in
  let eigs = Ewalk_linalg.Jacobi.eigenvalues dense in
  let lambda = Float.max (Float.abs eigs.(1)) (Float.abs eigs.(n - 1)) in
  let pi = Spectral.stationary g in
  (* On a regular graph the lazy normalised adjacency IS the lazy transition
     matrix, and it is symmetric, so evolving distributions with mul_vec is
     exact.  Track the worst pointwise deviation from every start. *)
  let p = lazy_op in
  let dists = Array.init n (fun u ->
      Array.init n (fun x -> if x = u then 1.0 else 0.0))
  in
  let horizon = match scale with Sweep.Tiny -> 20 | _ -> 40 in
  let rows = ref [] in
  for t = 1 to horizon do
    for u = 0 to n - 1 do
      dists.(u) <- Ewalk_linalg.Csr.mul_vec p dists.(u)
    done;
    if t mod 5 = 0 then begin
      let worst = ref 0.0 in
      for u = 0 to n - 1 do
        for x = 0 to n - 1 do
          let d = Float.abs (dists.(u).(x) -. pi.(x)) in
          if d > !worst then worst := d
        done
      done;
      (* eq. (5): |P_u^t(x) - pi_x| <= (pi_x/pi_u)^(1/2) lambda^t; on a
         regular graph the prefactor is 1. *)
      let bound = lambda ** fl t in
      rows :=
        [
          Table.cell_i t;
          Table.cell_f !worst;
          Table.cell_f bound;
          (if !worst <= bound +. 1e-9 then "yes" else "NO");
        ]
        :: !rows
    end
  done;
  {
    Table.id = "mixing-decay";
    title =
      Printf.sprintf
        "Eq. (5): lazy-walk convergence max|P^t - pi| vs lambda_max^t (random 4-regular, n=%d)"
        n;
    header = [ "t"; "max |P^t - pi|"; "lambda^t"; "within" ];
    rows = List.rev !rows;
    notes =
      [ "the measured deviation must sit below the spectral envelope at every t" ];
  }

let matthews_cover ~pool ~scale ~seed =
  let rows =
    List.filter_map
      (fun (name, g) ->
        if not (Traversal.is_connected g) then None
        else begin
          let bound = Hitting.matthews_upper_bound g in
          (* These graphs are tiny; buy sampling accuracy with extra trials
             (Matthews is exactly tight on K_n, so the comparison is at the
             boundary there). *)
          let trials = 10 * Sweep.trials scale in
          let rngs =
            Sweep.trial_rngs ~seed:(point_seed seed 3 (Graph.n g)) ~trials
          in
          let per_trial =
            Sweep.map_trials ?pool ~label:name
              (fun rng ->
                Ewalk.Cover.run_until_vertex_cover
                  ~cap:(Ewalk.Cover.default_cap g)
                  (Ewalk.Srw.process (Ewalk.Srw.create g rng ~start:0)))
              rngs
          in
          let acc = Stats.Online.create () in
          Array.iter
            (function
              | Some t -> Stats.Online.add acc (fl t)
              | None -> ())
            per_trial;
          if Stats.Online.count acc = 0 then None
          else
            Some
              [
                name;
                Table.cell_i (Graph.n g);
                Table.cell_f (Stats.Online.mean acc);
                Table.cell_f bound;
                (if Stats.Online.mean acc <= 1.05 *. bound then "yes"
                 else "NO");
              ]
        end)
      (small_families ~scale ~seed)
  in
  {
    Table.id = "matthews-bound";
    title = "Matthews bound: measured SRW cover time vs (max_uv E_u H_v) * H_n";
    header = [ "graph"; "n"; "srw cover (mean)"; "matthews"; "within" ];
    rows;
    notes =
      [
        "the bound is on the expectation and is exactly tight on K_n, so";
        "'within' allows 5% sampling slack around the boundary";
      ];
  }

let euler_overhead ~pool ~scale ~seed =
  let sizes =
    match Sweep.edge_sizes scale with
    | a :: b :: c :: _ -> [ a; b; c ]
    | sizes -> sizes
  in
  let families =
    [
      ("random-4-regular", fun rng n -> Exp_util.regular_graph rng ~n ~d:4);
      ("random-6-regular", fun rng n -> Exp_util.regular_graph rng ~n ~d:6);
      ( "torus",
        fun _rng n ->
          let side = max 3 (int_of_float (Float.round (sqrt (fl n)))) in
          Gen_classic.torus2d side side );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, build) ->
        List.filter_map
          (fun n ->
            let trials = Sweep.trials scale in
            let rngs =
              Sweep.trial_rngs
                ~seed:(point_seed seed (4 + Hashtbl.hash name land 0xf) n)
                ~trials
            in
            let per_trial =
              Sweep.map_trials ?pool ~label:name
                (fun rng ->
                  let g = build rng n in
                  (* Offline optimum: the Euler circuit has length exactly
                     m. *)
                  let ok =
                    match Ewalk_graph.Euler.euler_circuit g ~start:0 with
                    | Some trail when List.length trail = Graph.m g -> true
                    | _ -> false
                  in
                  let ratio =
                    match Exp_util.edge_cover_eprocess rng g with
                    | Some ce -> Some (fl ce /. fl (Graph.m g))
                    | None -> None
                  in
                  (ok, ratio))
                rngs
            in
            let overhead = Stats.Online.create () in
            let euler_ok = ref true in
            Array.iter
              (fun (ok, ratio) ->
                if not ok then euler_ok := false;
                match ratio with
                | Some x -> Stats.Online.add overhead x
                | None -> ())
              per_trial;
            if Stats.Online.count overhead = 0 then None
            else
              Some
                [
                  name;
                  Table.cell_i n;
                  (if !euler_ok then "m" else "NO EULER");
                  Table.cell_f (Stats.Online.mean overhead);
                ])
          sizes)
      families
  in
  {
    Table.id = "euler-overhead";
    title =
      "E-process as an online Euler tour: C_E / m vs the offline optimum of exactly m steps";
    header = [ "family"; "n"; "euler circuit"; "C_E / m" ];
    rows;
    notes =
      [
        "every even-degree connected graph admits an m-step offline edge cover (Euler)";
        "the E-process' overhead factor stays small on expanders (eq. (3) bounds it by 1 + C_V(SRW)/m)";
      ];
  }

let team_speedup_rows ~pool ~scale ~seed ~ks =
  let n =
    match scale with Sweep.Tiny -> 1_000 | Sweep.Default -> 50_000 | Sweep.Full -> 200_000
  in
  let trials = Sweep.trials scale in
  let base_rounds = ref Float.nan in
  let rows =
    List.filter_map
      (fun k ->
        let rngs = Sweep.trial_rngs ~seed:(point_seed seed (40 + k) n) ~trials in
        let per_trial =
          Sweep.map_trials ?pool
            (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d:4 in
              let t =
                Ewalk.Engine.create_spread Ewalk.Engine.E_uar g rng ~walkers:k
              in
              Ewalk.Engine.run_to_vertex_cover t)
            rngs
        in
        let rounds_acc = Stats.Online.create () in
        let work_acc = Stats.Online.create () in
        Array.iter
          (function
            | Some steps ->
                Stats.Online.add work_acc (fl steps /. fl n);
                Stats.Online.add rounds_acc (fl steps /. fl k /. fl n)
            | None -> ())
          per_trial;
        if Stats.Online.count rounds_acc = 0 then None
        else begin
          let rounds = Stats.Online.mean rounds_acc in
          if k = 1 then base_rounds := rounds;
          Some
            [
              Table.cell_i k;
              Table.cell_i n;
              Table.cell_f (Stats.Online.mean work_acc);
              Table.cell_f rounds;
              Table.cell_f (!base_rounds /. rounds);
            ]
        end)
      ks
  in
  {
    Table.id = "team-speedup";
    title =
      "Extension: k E-process walkers sharing edge marks (random 4-regular)";
    header = [ "k"; "n"; "total work / n"; "rounds / n"; "speed-up" ];
    rows;
    notes =
      [
        "total work stays ~2n for every k (shared marks are consumed once)";
        "wall-clock rounds shrink near-linearly in k until red-walk stragglers dominate";
        "this extension is beyond the paper's scope (DESIGN.md section 4)";
      ];
  }

let team_speedup ~pool ~scale ~seed =
  team_speedup_rows ~pool ~scale ~seed ~ks:[ 1; 2; 4; 8; 16 ]

let team_speedup_at ~pool ~scale ~seed ~walkers =
  let ks = if walkers = 1 then [ 1 ] else [ 1; walkers ] in
  team_speedup_rows ~pool ~scale ~seed ~ks

let kernel_modes_rows ~pool ~scale ~seed ~ks =
  let module Engine = Ewalk.Engine in
  let n =
    match scale with
    | Sweep.Tiny -> 512
    | Sweep.Default -> 8_192
    | Sweep.Full -> 32_768
  in
  let trials = Sweep.trials scale in
  let rows =
    List.filter_map
      (fun k ->
        let rngs = Sweep.trial_rngs ~seed:(point_seed seed (60 + k) n) ~trials in
        let per_trial =
          Sweep.map_trials ?pool
            (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d:4 in
              let cap = Ewalk.Cover.default_cap g in
              let coop =
                let e =
                  Engine.create_spread ~mode:Engine.Cooperating Engine.E_uar g
                    rng ~walkers:k
                in
                Ewalk.Cover.run_until_vertex_cover ~cap (Engine.process e)
              in
              let compete =
                let e =
                  Engine.create_spread ~mode:Engine.Competing Engine.E_uar g
                    rng ~walkers:k
                in
                Option.map snd (Engine.run_until_first_cover ~cap e)
              in
              (coop, compete))
            rngs
        in
        let coop_acc = Stats.Online.create () in
        let compete_acc = Stats.Online.create () in
        Array.iter
          (fun (coop, compete) ->
            Option.iter (fun s -> Stats.Online.add coop_acc (fl s /. fl n)) coop;
            Option.iter
              (fun s -> Stats.Online.add compete_acc (fl s /. fl n))
              compete)
          per_trial;
        if Stats.Online.count coop_acc = 0 || Stats.Online.count compete_acc = 0
        then None
        else begin
          let coop = Stats.Online.mean coop_acc in
          let compete = Stats.Online.mean compete_acc in
          Some
            [
              Table.cell_i k;
              Table.cell_i n;
              Table.cell_f coop;
              Table.cell_f compete;
              Table.cell_f (compete /. Float.max coop 1e-12);
            ]
        end)
      ks
  in
  {
    Table.id = "kernel-modes";
    title =
      "Kernel engine: cooperating (shared marks, total work) vs competing \
       (private marks, first walker to cover) on random 4-regular";
    header =
      [ "k"; "n"; "coop total / n"; "compete first cover / n"; "ratio" ];
    rows;
    notes =
      [
        "cooperating: one shared visited set, steps counted across all walkers";
        "competing: private visited sets, the column is the first walker's own cover step";
        "at k=1 both columns measure the same single E-process walk";
      ];
  }

let kernel_modes ~pool ~scale ~seed =
  kernel_modes_rows ~pool ~scale ~seed ~ks:[ 1; 2; 4; 8 ]

let kernel_modes_at ~pool ~scale ~seed ~walkers =
  kernel_modes_rows ~pool ~scale ~seed ~ks:[ walkers ]

let coverage_profile ~pool ~scale ~seed =
  let n =
    match scale with
    | Sweep.Tiny -> 1_000
    | Sweep.Default -> 50_000
    | Sweep.Full -> 200_000
  in
  let checkpoints = [ 1; 2; 3; 5; 10 ] in
  let configs =
    [
      ("e-process", 4); ("e-process", 3); ("srw", 4); ("srw", 3);
    ]
  in
  let trials = Sweep.trials scale in
  let rows =
    List.map
      (fun (pname, d) ->
        let rngs =
          Sweep.trial_rngs
            ~seed:(point_seed seed (50 + (10 * d) + String.length pname) n)
            ~trials
        in
        let per_trial =
          Sweep.map_trials ?pool ~label:pname
            (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d in
              let p =
                match pname with
                | "e-process" ->
                    Ewalk.Eprocess.process
                      (Ewalk.Eprocess.create g rng ~start:0)
                | _ -> Ewalk.Srw.process (Ewalk.Srw.create g rng ~start:0)
              in
              let profile =
                Ewalk_analysis.Profile.run ~cap:(20 * n)
                  ~checkpoint_every:(max 1 (n / 4))
                  p
              in
              let fracs =
                List.map
                  (fun c ->
                    match
                      Ewalk_analysis.Profile.stragglers_at profile
                        ~steps:(c * n)
                    with
                    | Some u -> Some (fl u /. fl n)
                    | None -> None)
                  checkpoints
              in
              (fracs, Ewalk_analysis.Profile.decay_rate profile ~n))
            rngs
        in
        let sums = Array.make (List.length checkpoints) 0.0 in
        let rate = Stats.Online.create () in
        Array.iter
          (fun (fracs, r) ->
            List.iteri
              (fun i frac ->
                match frac with
                | Some x -> sums.(i) <- sums.(i) +. x
                | None -> ())
              fracs;
            match r with
            | Some r -> Stats.Online.add rate r
            | None -> ())
          per_trial;
        Printf.sprintf "%s d=%d" pname d
        :: List.map
             (fun i -> Table.cell_f (sums.(i) /. fl trials))
             (List.init (List.length checkpoints) (fun i -> i))
        @ [
            (if Stats.Online.count rate > 0 then
               Table.cell_f (Stats.Online.mean rate)
             else "-");
          ])
      configs
  in
  {
    Table.id = "coverage-profile";
    title =
      Printf.sprintf
        "Unvisited-vertex fraction u(t)/n at t = c*n checkpoints (random regular, n=%d)"
        n;
    header =
      "process"
      :: List.map (fun c -> Printf.sprintf "t=%dn" c) checkpoints
      @ [ "decay rate" ];
    rows;
    notes =
      [
        "e-process d=4: stragglers vanish by t ~ 2n (linear cover)";
        "e-process d=3: a Theta(1) straggler fraction persists past 2n and decays exponentially (coupon collecting)";
        "srw: the classical exp(-t/(c n)) straggler decay on both parities";
      ];
  }

let concentration ~pool ~scale ~seed =
  let n =
    match scale with
    | Sweep.Tiny -> 500
    | Sweep.Default -> 20_000
    | Sweep.Full -> 100_000
  in
  let trials =
    match scale with Sweep.Tiny -> 10 | Sweep.Default -> 20 | Sweep.Full -> 30
  in
  let processes =
    [
      ( "e-process",
        fun g rng -> Ewalk.Eprocess.process (Ewalk.Eprocess.create g rng ~start:0) );
      ("srw", fun g rng -> Ewalk.Srw.process (Ewalk.Srw.create g rng ~start:0));
      ( "rwc(2)",
        fun g rng -> Ewalk.Rwc.process (Ewalk.Rwc.create ~d:2 g rng ~start:0) );
      ( "rotor",
        fun g rng ->
          Ewalk.Rotor.process
            (Ewalk.Rotor.create ~randomize_rotors:true g rng ~start:0) );
    ]
  in
  let rows =
    List.filter_map
      (fun (name, make) ->
        let rngs =
          Sweep.trial_rngs
            ~seed:(point_seed seed (60 + (String.length name)) n)
            ~trials
        in
        let per_trial =
          Sweep.map_trials ?pool ~label:name
            (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d:4 in
              Ewalk.Cover.run_until_vertex_cover
                ~cap:(Ewalk.Cover.default_cap g)
                (make g rng))
            rngs
        in
        (* Prepend in trial order: reproduces the sequential code's
           reversed sample list, keeping the summary bit-identical. *)
        let samples = ref [] in
        Array.iter
          (function
            | Some t -> samples := fl t :: !samples
            | None -> ())
          per_trial;
        match !samples with
        | [] | [ _ ] -> None
        | s ->
            let summary = Ewalk_analysis.Stats.summarize (Array.of_list s) in
            Some
              [
                name;
                Table.cell_i (List.length s);
                Table.cell_f summary.Ewalk_analysis.Stats.mean;
                Table.cell_f summary.Ewalk_analysis.Stats.std;
                Table.cell_f
                  (summary.Ewalk_analysis.Stats.std
                  /. summary.Ewalk_analysis.Stats.mean);
                Table.cell_f
                  ((summary.Ewalk_analysis.Stats.max
                   -. summary.Ewalk_analysis.Stats.min)
                  /. summary.Ewalk_analysis.Stats.mean);
              ])
      processes
  in
  {
    Table.id = "concentration";
    title =
      Printf.sprintf
        "Cover-time concentration across trials (random 4-regular, n=%d)" n;
    header = [ "process"; "trials"; "mean"; "std"; "cv=std/mean"; "range/mean" ];
    rows;
    notes =
      [
        "Avin-Krishnamachari report that edge/vertex-aware walks concentrate;";
        "the E-process' coefficient of variation is an order of magnitude below the SRW's";
      ];
  }

let doubled_odd ~pool ~scale ~seed =
  let sizes =
    match scale with
    | Sweep.Tiny -> [ 500; 1_000 ]
    | Sweep.Default -> [ 5_000; 20_000; 50_000 ]
    | Sweep.Full -> [ 50_000; 100_000; 200_000 ]
  in
  let trials = Sweep.trials scale in
  let rows =
    List.concat_map
      (fun n ->
        let rngs = Sweep.trial_rngs ~seed:(point_seed seed 70 n) ~trials in
        let per_trial =
          Sweep.map_trials ?pool
            (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d:3 in
              let plain_t = Exp_util.vertex_cover_eprocess rng g in
              let g2 = Ops.double_edges g in
              (plain_t, Exp_util.vertex_cover_eprocess rng g2))
            rngs
        in
        let plain = Stats.Online.create () and doubled = Stats.Online.create () in
        Array.iter
          (fun (plain_t, doubled_t) ->
            (match plain_t with
            | Some t -> Stats.Online.add plain (fl t /. fl n)
            | None -> ());
            match doubled_t with
            | Some t -> Stats.Online.add doubled (fl t /. fl n)
            | None -> ())
          per_trial;
        if Stats.Online.count plain = 0 || Stats.Online.count doubled = 0 then []
        else
          [
            [
              Table.cell_i n;
              Table.cell_f (Stats.Online.mean plain);
              Table.cell_f (Stats.Online.mean doubled);
              Table.cell_f
                (Stats.Online.mean plain /. Stats.Online.mean doubled);
            ];
          ])
      sizes
  in
  {
    Table.id = "doubled-odd";
    title =
      "Why Theorem 1 needs ell-goodness: doubling the edges of a 3-regular graph restores even degrees but NOT linear cover";
    header = [ "n"; "C_V/n (3-regular)"; "C_V/n (doubled)"; "ratio" ];
    rows;
    notes =
      [
        "doubling every edge gives even degree 6 on the same topology - but every vertex now";
        "sits on three 2-cycles, so ell collapses to the constant 4 and Theorem 1 only gives";
        "O(n + n log n / 4): BOTH columns grow like ln n, within a constant of each other.";
        "a negative control showing the even-degree hypothesis alone is not what buys Theta(n);";
        "the ell-goodness hypothesis does the real work (cf. the ell-good and fig1 experiments)";
      ];
  }

let high_girth ~pool ~scale ~seed =
  let n = match scale with Sweep.Tiny -> 500 | _ -> 10_000 in
  let targets = [ 3; 6 ] in
  let trials = match scale with Sweep.Tiny -> 2 | _ -> 3 in
  let rows =
    List.filter_map
      (fun target ->
        let rngs = Sweep.trial_rngs ~seed:(point_seed seed (80 + target) n) ~trials in
        let per_trial =
          Sweep.map_trials ?pool
            (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d:4 in
              let g =
                if target > 3 then Switch.boost_girth rng g ~target else g
              in
              let girth =
                match Girth.girth_at_most g 24 with Some x -> x | None -> 24
              in
              let gap =
                1.0
                -. Ewalk_spectral.Spectral.lambda_max_power ~tol:1e-7
                     ~max_iter:2_000 g
              in
              let bound =
                Ewalk_theory.Bounds.theorem3_edge_cover ~m:(Graph.m g) ~girth
                  ~max_degree:4 ~gap:(Float.max gap 1e-6) n
              in
              let ce_ratio =
                match Exp_util.edge_cover_eprocess rng g with
                | Some t -> Some (fl t /. fl (Graph.m g))
                | None -> None
              in
              (girth, bound /. fl (Graph.m g), ce_ratio))
            rngs
        in
        let ce = Stats.Online.create () in
        let bound_acc = Stats.Online.create () in
        let girth_min = ref max_int in
        Array.iter
          (fun (girth, bound_ratio, ce_ratio) ->
            if girth < !girth_min then girth_min := girth;
            Stats.Online.add bound_acc bound_ratio;
            match ce_ratio with
            | Some x -> Stats.Online.add ce x
            | None -> ())
          per_trial;
        if Stats.Online.count ce = 0 then None
        else
          Some
            [
              Table.cell_i target;
              Table.cell_i !girth_min;
              Table.cell_f (Stats.Online.mean ce);
              Table.cell_f (Stats.Online.mean bound_acc);
              (if Stats.Online.mean ce <= Stats.Online.mean bound_acc then
                 "yes"
               else "NO");
            ])
      targets
  in
  {
    Table.id = "high-girth";
    title =
      Printf.sprintf
        "Theorem 3's girth term on switch-boosted high-girth 4-regular graphs (n=%d)"
        n;
    header =
      [ "girth target"; "girth achieved"; "C_E/m"; "Thm3 bound/m"; "within" ];
    rows;
    notes =
      [
        "the boosted generator realises the paper's title objects: high girth even degree expanders";
        "the Theorem 3 envelope tightens as the girth grows; the measured C_E sits far below both";
        "on random regular graphs Corollary 4's O(omega n) is the binding estimate - the girth term";
        "pays off on adversarial girth-g graphs, not on these (already nearly cycle-free) samples";
      ];
  }
