open Ewalk_graph
module Fit = Ewalk_analysis.Fit
module Stats = Ewalk_analysis.Stats
module Eprocess = Ewalk.Eprocess
module Cover = Ewalk.Cover

let fl = float_of_int

(* Deterministic per-point seed so each (experiment, d, n) cell is
   reproducible in isolation. *)
let point_seed seed tag n = seed + (7919 * tag) + n

let cover_summary ?pool ~scale ~seed ~tag ~n measure =
  Sweep.mean_cover_of_trials ?pool ~seed:(point_seed seed tag n)
    ~trials:(Sweep.trials scale) measure

(* Mean E-process vertex cover times on random d-regular graphs, one entry
   per n; capped runs are dropped from the series used for fitting. *)
let eprocess_series ~pool ~scale ~seed ~sizes ~d =
  List.filter_map
    (fun n ->
      let feasible = n * d mod 2 = 0 in
      if not feasible then None
      else begin
        match
          cover_summary ?pool ~scale ~seed ~tag:d ~n (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d in
              Exp_util.vertex_cover_eprocess rng g)
        with
        | Some s -> Some (n, s)
        | None -> None
      end)
    sizes

let fit_notes ~d series =
  match series with
  | [] | [ _ ] -> [ Printf.sprintf "d=%d: too few points to fit" d ]
  | _ ->
      let ns = Array.of_list (List.map (fun (n, _) -> fl n) series) in
      let covers =
        Array.of_list (List.map (fun (_, s) -> s.Stats.mean) series)
      in
      let normalized =
        Array.map2 (fun c n -> c /. n) covers ns
      in
      let nlogn = Fit.scale_n_log_n ns covers in
      let lin = Fit.scale_linear ns covers in
      let slope = Fit.affine_log_x ns normalized in
      [
        Printf.sprintf
          "d=%d: C=c*n*ln(n) fit c=%.3f +/- %.3f (R2=%.3f); C=c*n fit c=%.2f \
           +/- %.2f (R2=%.3f); slope of C/n vs ln n: b=%.3f"
          d nlogn.Fit.c (1.96 *. nlogn.Fit.se) nlogn.Fit.r_squared lin.Fit.c
          (1.96 *. lin.Fit.se) lin.Fit.r_squared slope.Fit.slope;
      ]

let paper_constants =
  [ (3, "0.93 n ln n"); (5, "0.41 n ln n"); (7, "0.38 n ln n") ]

let fig1 ~pool ~scale ~seed =
  let degrees = [ 3; 4; 5; 6; 7 ] in
  let sizes = Sweep.cover_sizes scale in
  let data =
    List.map (fun d -> (d, eprocess_series ~pool ~scale ~seed ~sizes ~d)) degrees
  in
  let rows =
    List.concat_map
      (fun (d, series) ->
        List.map
          (fun (n, s) ->
            [
              Table.cell_i d;
              Table.cell_i n;
              Table.cell_f s.Stats.mean;
              Table.cell_f (s.Stats.mean /. fl n);
              Table.cell_f (s.Stats.stderr /. fl n);
            ])
          series)
      data
  in
  let fits = List.concat_map (fun (d, series) -> fit_notes ~d series) data in
  let paper =
    List.map
      (fun (d, c) -> Printf.sprintf "paper Figure 1, d=%d: cover ~ %s" d c)
      paper_constants
  in
  {
    Table.id = "fig1";
    title =
      "Figure 1: normalised E-process cover time C_V/n on random d-regular graphs";
    header = [ "d"; "n"; "cover"; "cover/n"; "stderr/n" ];
    rows;
    notes =
      fits @ paper
      @ [
          "expected shape: even d flat (Theta(n)); odd d grows like c*ln n";
          "+/- is 1.96 standard errors of the fitted constant (a normal \
           approximation; few sizes, few trials per size)";
        ];
  }

(* Each family maps the nominal size to its actual vertex count (the
   Margulis construction rounds to a square) and builds a graph of that
   size. *)
let family_table ?pool ~id ~title ~scale ~seed families =
  let sizes = Sweep.cover_sizes scale in
  let rows = ref [] in
  let notes = ref [] in
  List.iteri
    (fun fi (name, actual_n, build) ->
      let series = ref [] in
      List.iter
        (fun n ->
          match
            cover_summary ?pool ~scale ~seed ~tag:(100 + fi) ~n (fun rng ->
                Exp_util.vertex_cover_eprocess rng (build rng n))
          with
          | None -> ()
          | Some s ->
              let g_n = actual_n n in
              series := (g_n, s.Stats.mean) :: !series;
              rows :=
                [
                  name;
                  Table.cell_i g_n;
                  Table.cell_f s.Stats.mean;
                  Table.cell_f (s.Stats.mean /. fl g_n);
                ]
                :: !rows)
        sizes;
      match !series with
      | [] | [ _ ] -> ()
      | entries ->
          let ratios = List.map (fun (n, c) -> c /. fl n) entries in
          let lo = List.fold_left Float.min (List.hd ratios) ratios in
          let hi = List.fold_left Float.max (List.hd ratios) ratios in
          notes :=
            Printf.sprintf "%s: C/n in [%.2f, %.2f] (ratio %.2f; flat = Theta(n))"
              name lo hi (hi /. lo)
            :: !notes)
    families;
  {
    Table.id;
    title;
    header = [ "family"; "n"; "cover"; "cover/n" ];
    rows = List.rev !rows;
    notes = List.rev !notes;
  }

let thm1_scaling ~pool ~scale ~seed =
  let square n = max 2 (int_of_float (Float.round (sqrt (fl n)))) in
  family_table ?pool ~id:"thm1-scaling"
    ~title:
      "Theorem 1 / Corollary 2: C_V(E-process) = Theta(n) on even-degree expanders"
    ~scale ~seed
    [
      ( "random-4-regular",
        (fun n -> n),
        fun rng n -> Exp_util.regular_graph rng ~n ~d:4 );
      ( "random-6-regular",
        (fun n -> n),
        fun rng n -> Exp_util.regular_graph rng ~n ~d:6 );
      ( "margulis-deg8",
        (fun n -> square n * square n),
        fun _rng n -> Gen_expander.margulis (square n) );
      ( "cycle-union-deg4",
        (fun n -> n),
        fun rng n -> Gen_regular.cycle_union rng n 2 );
    ]

let rule_independence ~pool ~scale ~seed =
  let sizes =
    match Sweep.cover_sizes scale with
    | a :: b :: c :: _ -> [ a; b; c ]
    | sizes -> sizes
  in
  (* Each rule for a trial's graph, with the occupancy recorder it reads,
     if any. *)
  let fixed rule _ = (rule, None) in
  let rules =
    [
      ("uar", fixed Eprocess.Uar);
      ("lowest-slot", fixed Eprocess.Lowest_slot);
      ("highest-slot", fixed Eprocess.Highest_slot);
      ( "adversary:stay-explored",
        fun g ->
          let visits = Ewalk.Visits.create g in
          ( Eprocess.Adversarial (Exp_util.adversary_stay_explored visits),
            Some visits ) );
      ( "adversary:min-blue",
        fixed (Eprocess.Adversarial Exp_util.adversary_min_blue) );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, rule_for) ->
        List.filter_map
          (fun n ->
            match
              cover_summary ?pool ~scale ~seed
                ~tag:(Hashtbl.hash name land 0xff) ~n
                (fun rng ->
                  let g = Exp_util.regular_graph rng ~n ~d:4 in
                  let rule, visits = rule_for g in
                  Exp_util.vertex_cover_eprocess ~rule ?visits rng g)
            with
            | None -> None
            | Some s ->
                Some
                  [
                    name;
                    Table.cell_i n;
                    Table.cell_f s.Stats.mean;
                    Table.cell_f (s.Stats.mean /. fl n);
                  ])
          sizes)
      rules
  in
  {
    Table.id = "rule-independence";
    title =
      "Theorem 1 remark: E-process cover time is Theta(n) for every rule A (random 4-regular)";
    header = [ "rule"; "n"; "cover"; "cover/n" ];
    rows;
    notes =
      [
        "all rules, including online adversaries, should sit within a small constant factor";
      ];
  }

let srw_lower ~pool ~scale ~seed =
  let sizes = Sweep.cover_sizes scale in
  let rows = ref [] in
  let speedups = ref [] in
  List.iter
    (fun n ->
      let srw =
        cover_summary ?pool ~scale ~seed ~tag:500 ~n (fun rng ->
            let g = Exp_util.regular_graph rng ~n ~d:4 in
            Exp_util.vertex_cover_srw rng g)
      and ep =
        cover_summary ?pool ~scale ~seed ~tag:501 ~n (fun rng ->
            let g = Exp_util.regular_graph rng ~n ~d:4 in
            Exp_util.vertex_cover_eprocess rng g)
      in
      match (srw, ep) with
      | Some srw, Some ep ->
          let radzik = Ewalk_theory.Bounds.radzik_lower_bound ~n in
          let feige = Ewalk_theory.Bounds.feige_lower_bound ~n in
          let speedup = srw.Stats.mean /. ep.Stats.mean in
          speedups := (fl n, speedup) :: !speedups;
          rows :=
            [
              Table.cell_i n;
              Table.cell_f srw.Stats.mean;
              Table.cell_f radzik;
              Table.cell_f (srw.Stats.mean /. feige);
              Table.cell_f ep.Stats.mean;
              Table.cell_f speedup;
            ]
            :: !rows
      | _ -> ())
    sizes;
  let notes =
    match List.rev !speedups with
    | [] | [ _ ] -> []
    | pts ->
        let ns = Array.of_list (List.map fst pts) in
        let sp = Array.of_list (List.map snd pts) in
        let f = Fit.affine_log_x ns sp in
        [
          Printf.sprintf
            "speed-up vs ln n: slope b=%.3f (R2=%.3f) - Theta(log n) speed-up means b > 0"
            f.Fit.slope f.Fit.r_squared;
          "every SRW cover time must exceed the Radzik column (Theorem 5)";
        ]
  in
  {
    Table.id = "srw-lower";
    title =
      "Theorem 5 / Feige: SRW cover vs (n/4)ln(n/2), and the E-process speed-up (random 4-regular)";
    header =
      [ "n"; "srw cover"; "radzik lb"; "srw/(n ln n)"; "e-process"; "speedup" ];
    rows = List.rev !rows;
    notes;
  }

let odd_even_frontier ~pool ~scale ~seed =
  let degrees = [ 3; 4; 5; 6; 7; 8 ] in
  (* The slope estimate needs the full size range: with narrow spreads the
     odd degrees' logarithmic growth hides inside the noise. *)
  let sizes = Sweep.cover_sizes scale in
  let rows =
    List.filter_map
      (fun d ->
        let series = eprocess_series ~pool ~scale ~seed ~sizes ~d in
        match series with
        | [] | [ _ ] -> None
        | _ ->
            let ns = Array.of_list (List.map (fun (n, _) -> fl n) series) in
            let normalized =
              Array.of_list
                (List.map (fun (n, s) -> s.Stats.mean /. fl n) series)
            in
            let f = Fit.affine_log_x ns normalized in
            let verdict =
              if f.Fit.slope < 0.12 then "flat: Theta(n)"
              else "log growth: Theta(n log n)"
            in
            Some
              [
                Table.cell_i d;
                (if d mod 2 = 0 then "even" else "odd");
                Table.cell_f f.Fit.intercept;
                Table.cell_f f.Fit.slope;
                Table.cell_f f.Fit.r_squared;
                verdict;
              ])
      degrees
  in
  {
    Table.id = "odd-even-frontier";
    title = "Section 5: C_V/n = a + b ln n per degree - b vanishes iff degree is even";
    header = [ "d"; "parity"; "a"; "b"; "R2"; "verdict" ];
    rows;
    notes = [ "paper: even degrees flat; odd degrees logarithmic (Fig 1)" ];
  }

let process_compare ~pool ~scale ~seed =
  let n =
    match Sweep.cover_sizes scale with
    | _ :: _ :: c :: _ -> c
    | c :: _ -> c
    | [] -> 2_000
  in
  let side = int_of_float (Float.round (sqrt (fl n))) in
  let graphs =
    [
      ( "random-4-regular",
        fun rng -> (Exp_util.regular_graph rng ~n ~d:4, n) );
      ("torus", fun _rng -> (Gen_classic.torus2d side side, side * side));
    ]
  in
  let processes =
    [
      ( "e-process(uar)",
        fun g rng -> Eprocess.process (Eprocess.create g rng ~start:0) );
      ( "v-process",
        fun g rng -> Ewalk.Vprocess.process (Ewalk.Vprocess.create g rng ~start:0) );
      ("srw", fun g rng -> Ewalk.Srw.process (Ewalk.Srw.create g rng ~start:0));
      ( "rotor-router",
        fun g rng ->
          Ewalk.Rotor.process
            (Ewalk.Rotor.create ~randomize_rotors:true g rng ~start:0) );
      ( "rwc(2)",
        fun g rng -> Ewalk.Rwc.process (Ewalk.Rwc.create ~d:2 g rng ~start:0) );
      ( "least-used-first",
        fun g rng ->
          Ewalk.Fair.process
            (Ewalk.Fair.create ~random_ties:true
               ~strategy:Ewalk.Fair.Least_used_first g rng ~start:0) );
      ( "oldest-first",
        fun g rng ->
          Ewalk.Fair.process
            (Ewalk.Fair.create ~random_ties:true
               ~strategy:Ewalk.Fair.Oldest_first g rng ~start:0) );
      ( "metropolis",
        fun g rng ->
          Ewalk.Metropolis.process (Ewalk.Metropolis.create g rng ~start:0) );
    ]
  in
  let rows =
    List.concat_map
      (fun (gname, build) ->
        List.map
          (fun (pname, make_process) ->
            let tag = (Hashtbl.hash (gname, pname) land 0xfff) + 600 in
            let result =
              cover_summary ?pool ~scale ~seed ~tag ~n (fun rng ->
                  let g, _ = build rng in
                  Cover.run_until_vertex_cover
                    ~cap:(Cover.default_cap g)
                    (make_process g rng))
            in
            let actual_n = if gname = "torus" then side * side else n in
            [
              gname;
              pname;
              Table.cell_i actual_n;
              Table.cell_opt (fun s -> Table.cell_f s.Stats.mean) result;
              Table.cell_opt
                (fun s -> Table.cell_f (s.Stats.mean /. fl actual_n))
                result;
            ])
          processes)
      graphs
  in
  {
    Table.id = "process-compare";
    title = "Exploration processes compared: vertex cover time";
    header = [ "graph"; "process"; "n"; "cover"; "cover/n" ];
    rows;
    notes =
      [
        "'-' marks a capped run (oldest-first can be super-polynomial on some graphs)";
      ];
  }

let blanket_r_visits ~pool ~scale ~seed =
  let sizes =
    match Sweep.cover_sizes scale with
    | a :: b :: c :: _ -> [ a; b; c ]
    | sizes -> sizes
  in
  let d = 4 in
  let rows =
    List.filter_map
      (fun n ->
        let measured =
          Sweep.mean_of_trials ?pool ~seed:(point_seed seed 700 n)
            ~trials:(Sweep.trials scale) (fun rng ->
              let g = Exp_util.regular_graph rng ~n ~d in
              let walk = Ewalk.Srw.create g rng ~start:0 in
              let visits = Ewalk.Visits.create g in
              let p = Ewalk.Visits.attach visits (Ewalk.Srw.process walk) in
              let cover =
                match Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) p with
                | Some t -> fl t
                | None -> Float.nan
              in
              let t_r =
                match
                  Ewalk.Visits.run_until_min_visits ~cap:(Cover.default_cap g)
                    ~k:d visits p
                with
                | Some t -> fl t
                | None -> Float.nan
              in
              t_r /. cover)
        in
        if Float.is_nan measured.Stats.mean then None
        else
          Some
            [
              Table.cell_i n;
              Table.cell_i d;
              Table.cell_f measured.Stats.mean;
              Table.cell_f measured.Stats.std;
            ])
      sizes
  in
  {
    Table.id = "blanket-r-visits";
    title =
      "Eq. (4): SRW time to visit every vertex r times, as a multiple of its cover time";
    header = [ "n"; "r"; "T(r)/C_V"; "std" ];
    rows;
    notes =
      [
        "bounded ratio across n supports E[T(r)] = O(C_V(SRW)) (blanket-time argument)";
      ];
  }
