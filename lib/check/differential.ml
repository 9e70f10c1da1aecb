open Ewalk_graph
module Rng = Ewalk_prng.Rng
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Rotor = Ewalk.Rotor
module Engine = Ewalk.Engine
module Coverage = Ewalk.Coverage
module Pool = Ewalk_par.Pool

type mode = Uar | Lowest | Highest | Srw_walk | Rotor_walk

let mode_name = function
  | Uar -> "uar"
  | Lowest -> "lowest-slot"
  | Highest -> "highest-slot"
  | Srw_walk -> "srw"
  | Rotor_walk -> "rotor"

let all_modes = [ Uar; Lowest; Highest; Srw_walk; Rotor_walk ]

type case = {
  label : string;
  graph : Graph.t;
  seed : int;
  max_steps : int;
  mode : mode;
}

let case_name c =
  Printf.sprintf "%s/%s/seed=%d" c.label (mode_name c.mode) c.seed

(* Feed a production walk's native Step events through an invariant
   monitor, keeping the first violation. *)
let attach_monitor prod inv first =
  Engine.set_observer prod
    (Some
       (fun ~walker:_ (ev : Ewalk_obs.Trace.event) ->
         match ev with
         | Ewalk_obs.Trace.Step { step; vertex; edge; blue } -> (
             match Invariant.on_step inv ~step ~vertex ~edge ~blue with
             | Some v when !first = None ->
                 first := Some (Invariant.violation_to_string v)
             | _ -> ())
         | _ -> ()))

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Compare the production coverage's per-edge flags against a reference
   bool array.  For the E-process the two must coincide exactly: red steps
   only re-traverse edges already visited, so the coverage set equals the
   set of blue-retired edges. *)
let check_edge_flags cov reference =
  let flags = Coverage.visited_edge_flags cov in
  if Array.length flags <> Array.length reference then
    err "edge flag arrays differ in length: %d vs %d" (Array.length flags)
      (Array.length reference)
  else begin
    let bad = ref None in
    Array.iteri
      (fun e p -> if !bad = None && p <> reference.(e) then bad := Some e)
      flags;
    match !bad with
    | Some e ->
        err "edge %d %s by production but %s in the reference set" e
          (if Coverage.edge_visited cov e then "visited" else "unvisited")
          (if reference.(e) then "visited" else "unvisited")
    | None -> Ok ()
  end

let ( let* ) = Result.bind

let finish_monitor inv first =
  match !first with Some msg -> Error msg | None -> Ok (Invariant.steps inv)

(* Every blue rule: full RNG lockstep against the oracle. *)
let eprocess_lockstep c =
  let prod_rule, oracle_rule, inv_rule =
    match c.mode with
    | Uar -> (Eprocess.Uar, Oracle.Eprocess.Uar, Invariant.Any_unvisited)
    | Lowest ->
        (Eprocess.Lowest_slot, Oracle.Eprocess.Lowest_slot, Invariant.Lowest_slot)
    | _ ->
        (Eprocess.Highest_slot, Oracle.Eprocess.Highest_slot,
         Invariant.Highest_slot)
  in
  let g = c.graph in
  let prod = Eprocess.create ~rule:prod_rule g (Rng.create ~seed:c.seed ()) ~start:0 in
  let orc =
    Oracle.Eprocess.create ~rule:oracle_rule g (Rng.create ~seed:c.seed ())
      ~start:0
  in
  let inv = Invariant.create ~rule:inv_rule g ~start:0 in
  let first = ref None in
  attach_monitor prod inv first;
  let cov = Eprocess.coverage prod in
  let divergence = ref None in
  let steps = ref 0 in
  while
    !divergence = None
    && (not (Coverage.all_vertices_visited cov))
    && !steps < c.max_steps
  do
    Eprocess.step prod;
    Oracle.Eprocess.step orc;
    incr steps;
    if Eprocess.position prod <> Oracle.Eprocess.position orc then
      divergence :=
        Some
          (Printf.sprintf "step %d: production at vertex %d, oracle at %d"
             !steps (Eprocess.position prod)
             (Oracle.Eprocess.position orc))
    else if Eprocess.blue_steps prod <> Oracle.Eprocess.blue_steps orc then
      divergence :=
        Some
          (Printf.sprintf "step %d: production blue count %d, oracle %d"
             !steps (Eprocess.blue_steps prod)
             (Oracle.Eprocess.blue_steps orc))
  done;
  match !divergence with
  | Some msg -> Error msg
  | None ->
      let* _ = finish_monitor inv first in
      if not (Coverage.all_vertices_visited cov) then
        err "not covered within %d steps" c.max_steps
      else
        let* () = check_edge_flags cov (Oracle.Eprocess.visited_edges orc) in
        if Coverage.vertices_visited cov <> Oracle.Eprocess.vertices_visited orc
        then
          err "vertex counts diverge: production %d, oracle %d"
            (Coverage.vertices_visited cov)
            (Oracle.Eprocess.vertices_visited orc)
        else Ok !steps

let srw_lockstep c =
  let g = c.graph in
  let prod = Srw.create g (Rng.create ~seed:c.seed ()) ~start:0 in
  let orc = Oracle.Srw.create g (Rng.create ~seed:c.seed ()) ~start:0 in
  let inv = Invariant.create ~prefers_unvisited:false g ~start:0 in
  let first = ref None in
  attach_monitor prod inv first;
  let cov = Srw.coverage prod in
  let divergence = ref None in
  let steps = ref 0 in
  while
    !divergence = None
    && (not (Coverage.all_vertices_visited cov))
    && !steps < c.max_steps
  do
    Srw.step prod;
    Oracle.Srw.step orc;
    incr steps;
    if Srw.position prod <> Oracle.Srw.position orc then
      divergence :=
        Some
          (Printf.sprintf "step %d: production at vertex %d, oracle at %d"
             !steps (Srw.position prod) (Oracle.Srw.position orc))
  done;
  match !divergence with
  | Some msg -> Error msg
  | None ->
      let* _ = finish_monitor inv first in
      if not (Coverage.all_vertices_visited cov) then
        err "not covered within %d steps" c.max_steps
      else if Coverage.vertices_visited cov <> Oracle.Srw.vertices_visited orc
      then
        err "vertex counts diverge: production %d, oracle %d"
          (Coverage.vertices_visited cov)
          (Oracle.Srw.vertices_visited orc)
      else Ok !steps

let rotor_lockstep c =
  let g = c.graph in
  let prod =
    Rotor.create ~randomize_rotors:true g (Rng.create ~seed:c.seed ()) ~start:0
  in
  let orc =
    Oracle.Rotor.create ~randomize_rotors:true g (Rng.create ~seed:c.seed ())
      ~start:0
  in
  let inv = Invariant.create ~prefers_unvisited:false g ~start:0 in
  let first = ref None in
  attach_monitor prod inv first;
  let check_offsets where =
    let bad = ref None in
    for v = 0 to Graph.n g - 1 do
      if !bad = None && Rotor.rotor_offset prod v <> Oracle.Rotor.rotor_offset orc v
      then bad := Some v
    done;
    match !bad with
    | Some v ->
        err "%s: rotor offset at vertex %d is %d (production) vs %d (oracle)"
          where v
          (Rotor.rotor_offset prod v)
          (Oracle.Rotor.rotor_offset orc v)
    | None -> Ok ()
  in
  let* () = check_offsets "after init" in
  let cov = Rotor.coverage prod in
  let divergence = ref None in
  let steps = ref 0 in
  while
    !divergence = None
    && (not (Coverage.all_vertices_visited cov))
    && !steps < c.max_steps
  do
    Rotor.step prod;
    Oracle.Rotor.step orc;
    incr steps;
    if Rotor.position prod <> Oracle.Rotor.position orc then
      divergence :=
        Some
          (Printf.sprintf "step %d: production at vertex %d, oracle at %d"
             !steps (Rotor.position prod) (Oracle.Rotor.position orc))
  done;
  match !divergence with
  | Some msg -> Error msg
  | None ->
      let* _ = finish_monitor inv first in
      if not (Coverage.all_vertices_visited cov) then
        err "not covered within %d steps" c.max_steps
      else
        let* () = check_offsets "at end" in
        Ok !steps

let run_case c =
  match c.mode with
  | Uar | Lowest | Highest -> eprocess_lockstep c
  | Srw_walk -> srw_lockstep c
  | Rotor_walk -> rotor_lockstep c

(* Deterministically-built stock graphs spanning the shapes the paper's
   theorems distinguish: even regular (simple and multigraph), odd
   regular, hypercube, lollipop, cycle unions — plus one graph whose
   degree (65) exceeds a machine word, so the marks' multi-word path runs
   against the oracle. *)
let stock_graphs () =
  let rng = Rng.create ~seed:42 () in
  [
    ("cycle16", Gen_classic.cycle 16);
    ("complete5", Gen_classic.complete 5);
    ("double-cycle12", Gen_classic.double_cycle 12);
    ("hypercube4", Gen_classic.hypercube 4);
    ("torus5x4", Gen_classic.torus2d 5 4);
    ("cycle-union18", Gen_regular.cycle_union rng 18 2);
    ("regular4-24", Gen_regular.random_regular_connected rng 24 4);
    ("regular3-20", Gen_regular.random_regular_connected rng 20 3);
    ("lollipop8-8", Gen_classic.lollipop 8 8);
    ("petersen", Gen_classic.petersen ());
    ("complete66", Gen_classic.complete 66);
  ]

let stock_cases ?(seeds = [ 1; 2; 3 ]) ?(modes = all_modes) () =
  List.concat_map
    (fun (label, graph) ->
      let max_steps = max 50_000 (500 * Graph.m graph) in
      List.concat_map
        (fun seed ->
          List.map (fun mode -> { label; graph; seed; max_steps; mode }) modes)
        seeds)
    (stock_graphs ())

type report = {
  cases : int;
  graphs : int;
  seeds : int;
  modes : int;
  steps : int;
  failures : (string * string) list;
}

let report_line r =
  Printf.sprintf "verified %d cases (%d graphs x %d seeds x %d modes), %d steps%s"
    r.cases r.graphs r.seeds r.modes r.steps
    (match r.failures with
    | [] -> ""
    | fs -> Printf.sprintf ", %d FAILED" (List.length fs))

let distinct xs = List.length (List.sort_uniq compare xs)

(* A step that raises fails its own case, named in the report, instead of
   escaping the pool and taking every other case's result with it. *)
let isolated run c =
  try run c with e -> err "raised %s" (Printexc.to_string e)

let run_suite ?jobs cases =
  let arr = Array.of_list cases in
  let results =
    Pool.with_pool ?jobs (fun pool -> Pool.map_array pool (isolated run_case) arr)
  in
  let steps = ref 0 and failures = ref [] in
  Array.iteri
    (fun i result ->
      match result with
      | Ok s -> steps := !steps + s
      | Error msg -> failures := (case_name arr.(i), msg) :: !failures)
    results;
  {
    cases = Array.length arr;
    graphs = distinct (List.map (fun c -> c.label) cases);
    seeds = distinct (List.map (fun c -> c.seed) cases);
    modes = distinct (List.map (fun c -> c.mode) cases);
    steps = !steps;
    failures = List.rev !failures;
  }

(* --- kernel differential battery -------------------------------------- *)

type kernel_case = {
  k_label : string;
  k_graph : Graph.t;
  k_seed : int;
  k_walkers : int;
  k_mode : Engine.mode;
  k_proc : Engine.proc;
  k_max_steps : int; (* per-walker step budget *)
}

let kernel_mode_name = function
  | Engine.Cooperating -> "coop"
  | Engine.Competing -> "compete"

let kernel_proc_name = function
  | Engine.E_uar -> "uar"
  | Engine.E_lowest -> "lowest-slot"
  | Engine.E_highest -> "highest-slot"
  | Engine.E_adversarial _ -> "adversarial"
  | Engine.Srw -> "srw"
  | Engine.Lazy_srw -> "lazy-srw"
  | Engine.Rotor -> "rotor"

let kernel_case_name c =
  Printf.sprintf "kernel/%s/%s/%s/w=%d/seed=%d" c.k_label
    (kernel_proc_name c.k_proc)
    (kernel_mode_name c.k_mode)
    c.k_walkers c.k_seed

let oracle_proc = function
  | Engine.E_uar -> Oracle.Kernel.E_uar
  | Engine.E_lowest -> Oracle.Kernel.E_lowest
  | Engine.E_highest -> Oracle.Kernel.E_highest
  | Engine.Srw -> Oracle.Kernel.Srw_walk
  | Engine.Lazy_srw -> Oracle.Kernel.Lazy_srw_walk
  | Engine.Rotor -> Oracle.Kernel.Rotor_walk
  | Engine.E_adversarial _ ->
      invalid_arg "Differential: an adversarial rule has no naive oracle"

let oracle_mode = function
  | Engine.Cooperating -> Oracle.Kernel.Cooperating
  | Engine.Competing -> Oracle.Kernel.Competing

(* Deterministic spread-out start vertices shared by engine and oracle. *)
let kernel_starts g w =
  let n = Graph.n g in
  Array.init w (fun i -> i * max 1 (n / w) mod n)

(* A case stops once some walker's coverage is complete — the shared one
   in cooperating mode, any walker's own in competing mode. *)
let kernel_stopped eng =
  let covered = ref false in
  for w = 0 to Engine.walkers eng - 1 do
    if Coverage.all_vertices_visited (Engine.walker_coverage eng w) then
      covered := true
  done;
  !covered

(* Per-walker invariant monitors: in competing mode every walker's stream
   is a self-contained single walk over its private visited set
   (walker-local step stamps), so each gets its own shadow, with the slot
   rule pinned for the deterministic rules.  A 1-walker cooperating engine
   is likewise a single walk.  Multi-walker cooperating streams
   interleave over shared marks — no per-stream shadow applies; those
   configurations are covered by the lockstep oracle. *)
let kernel_monitors c g starts =
  let single = c.k_mode = Engine.Competing || c.k_walkers = 1 in
  if not single then None
  else begin
    let prefers =
      match c.k_proc with
      | Engine.E_uar | Engine.E_lowest | Engine.E_highest
      | Engine.E_adversarial _ ->
          true
      | Engine.Srw | Engine.Lazy_srw | Engine.Rotor -> false
    in
    let rule =
      match c.k_proc with
      | Engine.E_lowest -> Invariant.Lowest_slot
      | Engine.E_highest -> Invariant.Highest_slot
      | _ -> Invariant.Any_unvisited
    in
    Some
      (Array.map
         (fun s -> Invariant.create ~rule ~prefers_unvisited:prefers g ~start:s)
         starts)
  end

let attach_kernel_monitors eng monitors first =
  match monitors with
  | None -> ()
  | Some arr ->
      Engine.set_observer eng
        (Some
           (fun ~walker ev ->
             match ev with
             | Ewalk_obs.Trace.Step { step; vertex; edge; blue } -> (
                 match
                   Invariant.on_step arr.(walker) ~step ~vertex ~edge ~blue
                 with
                 | Some v when !first = None ->
                     first := Some (Invariant.violation_to_string v)
                 | _ -> ())
             | _ -> ()))

let check_kernel_rotors c eng orc where =
  match c.k_proc with
  | Engine.E_uar | Engine.E_lowest | Engine.E_highest | Engine.E_adversarial _
  | Engine.Srw | Engine.Lazy_srw ->
      Ok ()
  | Engine.Rotor ->
      let bad = ref None in
      for w = 0 to c.k_walkers - 1 do
        for v = 0 to Graph.n c.k_graph - 1 do
          if
            !bad = None
            && Engine.rotor_offset eng w v <> Oracle.Kernel.rotor_offset orc w v
          then bad := Some (w, v)
        done
      done;
      match !bad with
      | Some (w, v) -> err "%s: rotor offset of walker %d at vertex %d diverges" where w v
      | None -> Ok ()

(* Every configuration: full RNG lockstep, one engine walker-step against
   one oracle walker-step, comparing the moved walker's position and blue
   count after each. *)
let run_kernel_case c =
  let g = c.k_graph in
  let starts = kernel_starts g c.k_walkers in
  let eng =
    Engine.create ~mode:c.k_mode c.k_proc g (Rng.create ~seed:c.k_seed ())
      ~starts
  in
  let orc =
    Oracle.Kernel.create ~mode:(oracle_mode c.k_mode) (oracle_proc c.k_proc) g
      (Rng.create ~seed:c.k_seed ())
      ~starts
  in
  let monitors = kernel_monitors c g starts in
  let first = ref None in
  attach_kernel_monitors eng monitors first;
  let* () = check_kernel_rotors c eng orc "after init" in
  let budget = c.k_max_steps * c.k_walkers in
  let total = ref 0 in
  let div = ref None in
  while !div = None && (not (kernel_stopped eng)) && !total < budget do
    let w = Engine.cursor eng in
    Engine.step eng;
    Oracle.Kernel.step orc;
    incr total;
    if Engine.walker_position eng w <> Oracle.Kernel.walker_position orc w then
      div :=
        Some
          (Printf.sprintf "step %d: walker %d at vertex %d (engine) vs %d (oracle)"
             !total w
             (Engine.walker_position eng w)
             (Oracle.Kernel.walker_position orc w))
    else if
      Engine.walker_blue_steps eng w <> Oracle.Kernel.walker_blue_steps orc w
    then
      div :=
        Some
          (Printf.sprintf "step %d: walker %d blue count %d (engine) vs %d (oracle)"
             !total w
             (Engine.walker_blue_steps eng w)
             (Oracle.Kernel.walker_blue_steps orc w))
  done;
  match !div with
  | Some msg -> Error msg
  | None -> (
      let* () = match !first with Some m -> Error m | None -> Ok () in
      if not (kernel_stopped eng) then
        err "not covered within %d walker-steps" budget
      else
        (* Every walker's coverage against its oracle row: the shared one
           in cooperating mode, its own in competing mode. *)
        let rec walkers w =
          if w = c.k_walkers then check_kernel_rotors c eng orc "at end"
          else
            let cov = Engine.walker_coverage eng w in
            let* () = check_edge_flags cov (Oracle.Kernel.visited_row orc w) in
            if
              Coverage.vertices_visited cov
              <> Oracle.Kernel.vertices_visited orc w
            then
              err "walker %d: vertex count %d (engine) vs %d (oracle)" w
                (Coverage.vertices_visited cov)
                (Oracle.Kernel.vertices_visited orc w)
            else if
              Coverage.all_vertices_visited cov
              <> Oracle.Kernel.all_vertices_visited orc w
            then err "walker %d: cover flag diverges from oracle" w
            else walkers (w + 1)
        in
        Result.map (fun () -> !total) (walkers 0))

let stock_kernel_cases ?(walkers = [ 1; 4; 17 ]) ?(seeds = [ 1; 2; 3 ]) () =
  let procs =
    [
      Engine.E_uar;
      Engine.E_lowest;
      Engine.E_highest;
      Engine.Srw;
      Engine.Lazy_srw;
      Engine.Rotor;
    ]
  in
  let kmodes = [ Engine.Cooperating; Engine.Competing ] in
  List.concat_map
    (fun (label, graph) ->
      let max_steps = max 50_000 (500 * Graph.m graph) in
      List.concat_map
        (fun seed ->
          List.concat_map
            (fun w ->
              List.concat_map
                (fun mode ->
                  List.map
                    (fun p ->
                      {
                        k_label = label;
                        k_graph = graph;
                        k_seed = seed;
                        k_walkers = w;
                        k_mode = mode;
                        k_proc = p;
                        k_max_steps = max_steps;
                      })
                    procs)
                kmodes)
            walkers)
        seeds)
    (stock_graphs ())

let run_kernel_suite ?jobs cases =
  let arr = Array.of_list cases in
  let results =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map_array pool (isolated run_kernel_case) arr)
  in
  let steps = ref 0 and failures = ref [] in
  Array.iteri
    (fun i result ->
      match result with
      | Ok s -> steps := !steps + s
      | Error msg -> failures := (kernel_case_name arr.(i), msg) :: !failures)
    results;
  {
    cases = Array.length arr;
    graphs = distinct (List.map (fun c -> c.k_label) cases);
    seeds = distinct (List.map (fun c -> c.k_seed) cases);
    modes =
      distinct
        (List.map
           (fun c -> (kernel_proc_name c.k_proc, c.k_mode, c.k_walkers))
           cases);
    steps = !steps;
    failures = List.rev !failures;
  }
