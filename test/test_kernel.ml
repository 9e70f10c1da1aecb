(* Tests for the walk engine (Ewalk.Engine): the packed generator state
   and the engine's lanes, W=1 agreement between Engine.create and the
   single-walker view constructors, cooperating/competing semantics, the differential battery
   against the naive oracle at several job counts, parallel run
   equivalence, checkpoint round-trips, and the mutation-kill battery
   proving the checkers catch deliberately broken kernels. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Gen_random = Ewalk_graph.Gen_random
module Traversal = Ewalk_graph.Traversal
module Rng = Ewalk_prng.Rng
module Trace = Ewalk_obs.Trace
module Pool = Ewalk_par.Pool
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Rotor = Ewalk.Rotor
module Cover = Ewalk.Cover
module Coverage = Ewalk.Coverage
module Engine = Ewalk.Engine
module Xoshiro = Ewalk_prng.Xoshiro
module Invariant = Ewalk_check.Invariant
module Oracle = Ewalk_check.Oracle
module Differential = Ewalk_check.Differential

let qcheck = QCheck_alcotest.to_alcotest

let fixture_regular =
  lazy
    (let rng = Rng.create ~seed:4242 () in
     Gen_regular.random_regular_connected rng 48 4)

(* -- packed generator state and the engine's lanes ---------------------- *)

(* [Rng] keeps the xoshiro256++ words packed in 32 bytes with the update
   written out inline; the record-based [Xoshiro] is the reference it must
   equal draw for draw, with the exact draw algorithms: the low-bit mask
   for power-of-two bounds, 63-bit rejection otherwise, 53-bit floats and
   low-bit coins. *)
let xoshiro_of rng =
  let w = Rng.save rng in
  Xoshiro.of_state w.(0) w.(1) w.(2) w.(3)

let xoshiro_int x bound =
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (Xoshiro.next x) (Int64.of_int (bound - 1)))
  else begin
    let bound64 = Int64.of_int bound in
    let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
    let rec draw () =
      let v = Int64.logand (Xoshiro.next x) Int64.max_int in
      if v >= limit then draw () else Int64.to_int (Int64.rem v bound64)
    in
    draw ()
  end

let xoshiro_float x bound =
  Int64.to_float (Int64.shift_right_logical (Xoshiro.next x) 11)
  *. (1.0 /. 9007199254740992.0) *. bound

let xoshiro_bool x = Int64.logand (Xoshiro.next x) 1L = 1L

let prop_rng_equals_xoshiro =
  QCheck.Test.make ~name:"Rng replicates Xoshiro draws" ~count:300
    QCheck.(
      triple int64 (int_range 0 20)
        (list_of_size (Gen.return 64)
           (triple (int_range 0 4) (int_range 1 61) int)))
    (fun (seed, index, ops) ->
      let root = Rng.of_int64 seed in
      let s0, s1, s2, s3 = Xoshiro.state (Xoshiro.of_seed seed) in
      if Rng.save root <> [| s0; s1; s2; s3 |] then
        QCheck.Test.fail_report "seeding differs from Xoshiro.of_seed";
      let rng = Rng.stream root index in
      let x = xoshiro_of rng in
      List.for_all
        (fun (op, bits, i) ->
          let bound = 1 + ((i land max_int) mod (1 lsl bits)) in
          match op with
          | 0 -> Rng.bits64 rng = Xoshiro.next x
          | 1 -> Rng.int rng bound = xoshiro_int x bound
          | 2 -> Rng.int rng (1 lsl (bits - 1)) = xoshiro_int x (1 lsl (bits - 1))
          | 3 -> Rng.bool rng = xoshiro_bool x
          | _ ->
              Int64.bits_of_float (Rng.float rng 3.5)
              = Int64.bits_of_float (xoshiro_float x 3.5))
        ops)

let lane_words eng w = Array.sub (Engine.checkpoint eng).Engine.ck_prng (4 * w) 4

(* Walker w of an engine draws from lane w = [Rng.stream root w]: a
   simple random walk on a 4-regular graph takes exactly one [Rng.int _ 4]
   per step, so after r rounds each lane is its stream advanced r draws. *)
let lanes_replicate_streams () =
  let g = Lazy.force fixture_regular in
  let root = Rng.create ~seed:91 () in
  let eng = Engine.create Engine.Srw g root ~starts:[| 0; 5; 9; 30 |] in
  let refs = Array.init 4 (Rng.stream root) in
  for w = 0 to 3 do
    Alcotest.(check (array int64))
      (Printf.sprintf "lane %d at creation" w)
      (Rng.save refs.(w)) (lane_words eng w)
  done;
  Engine.run_rounds eng 64;
  for w = 0 to 3 do
    for _ = 1 to 64 do
      ignore (Rng.int refs.(w) 4)
    done;
    Alcotest.(check (array int64))
      (Printf.sprintf "lane %d after 64 rounds" w)
      (Rng.save refs.(w)) (lane_words eng w)
  done

let engine_root_not_advanced () =
  let g = Lazy.force fixture_regular in
  let root = Rng.create ~seed:17 () in
  let before = Rng.save root in
  let eng =
    Engine.create ~mode:Engine.Competing Engine.Rotor g root
      ~starts:(Array.init 8 (fun w -> w))
  in
  Engine.run_rounds eng 20;
  Alcotest.(check (array int64)) "root untouched" before (Rng.save root);
  (* A view's lane is the caller's generator: stepping advances it, one
     [Rng.int _ 4] per simple-random-walk step on a 4-regular graph. *)
  let reference = Rng.copy root in
  let walk = Srw.create g root ~start:0 in
  Srw.run_steps walk 25;
  for _ = 1 to 25 do
    ignore (Rng.int reference 4)
  done;
  Alcotest.(check (array int64)) "a view advances it" (Rng.save reference)
    (Rng.save root)

let rng_save_restore () =
  let rng = Rng.create ~seed:5 () in
  ignore (Rng.bits64 rng);
  let words = Rng.save rng in
  Alcotest.(check int) "4 words" 4 (Array.length words);
  let rng' = Rng.restore words in
  for _ = 0 to 9 do
    Alcotest.(check int64) "restored stream" (Rng.bits64 rng) (Rng.bits64 rng')
  done;
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Rng.restore: all-zero state") (fun () ->
      ignore (Rng.restore [| 0L; 0L; 0L; 0L |]));
  (* An engine's checkpoint carries its lanes' words and continues them. *)
  let g = Lazy.force fixture_regular in
  let eng = Engine.create_spread Engine.E_uar g (Rng.create ~seed:6 ()) ~walkers:3 in
  Engine.run_rounds eng 30;
  let resumed = Engine.of_checkpoint g (Engine.checkpoint eng) in
  Engine.run_rounds eng 30;
  Engine.run_rounds resumed 30;
  Alcotest.(check (array int64)) "lanes continue"
    (Engine.checkpoint eng).Engine.ck_prng
    (Engine.checkpoint resumed).Engine.ck_prng

(* A copy is a snapshot: it predicts the original's future draws without
   advancing it, and the two share no bytes. *)
let rng_copy_snapshots () =
  let rng = Rng.create ~seed:23 () in
  ignore (Rng.bits64 rng);
  let snap = Rng.copy rng in
  let predicted = Array.init 5 (fun _ -> Rng.bits64 snap) in
  Array.iteri
    (fun i p ->
      Alcotest.(check int64) (Printf.sprintf "draw %d" i) p (Rng.bits64 rng))
    predicted

(* -- Rng.stream derivation --------------------------------------------------- *)

let stream_distinct_and_pure () =
  let root = Rng.create ~seed:7 () in
  let before = Rng.save root in
  let streams = Array.init 8 (fun i -> Rng.stream root i) in
  Alcotest.(check (array int64)) "stream does not advance root" before
    (Rng.save root);
  Alcotest.(check (array int64)) "stream 0 = parent state" before
    (Rng.save streams.(0));
  (* Pairwise-distinct states: a kernel must never hand two walkers the
     same stream (the Team re-seeding regression). *)
  for i = 0 to 7 do
    for j = i + 1 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "streams %d and %d distinct" i j)
        false
        (Rng.save streams.(i) = Rng.save streams.(j))
    done
  done

(* -- W=1: Engine.create against the view constructors ------------------------ *)

(* A one-walker walk can be built two ways, and both must walk the same
   trajectory: [Engine.create] on lane [Rng.stream root 0] (a copy of the
   root, which stays untouched), and the view constructors
   ([Eprocess.create], [Srw.create], [Rotor.create]) on the caller's
   generator itself, which they advance.  Compared: the cover step, the
   full per-step event stream (Step and Phase boundaries), final
   position, step counters, the visited-edge flags, and the generator
   words — the view's caller generator ends where the created engine's
   lane does. *)
let collect_engine_events eng run =
  let evs = ref [] in
  Engine.set_observer eng (Some (fun ~walker:_ ev -> evs := ev :: !evs));
  let res = run () in
  (res, List.rev !evs)

let event_list =
  Alcotest.testable
    (fun fmt ev -> Format.pp_print_string fmt (Trace.event_to_string ev))
    ( = )

let view_of proc g rng ~start =
  match proc with
  | Engine.E_uar -> Eprocess.create g rng ~start
  | Engine.E_lowest -> Eprocess.create ~rule:Eprocess.Lowest_slot g rng ~start
  | Engine.E_highest -> Eprocess.create ~rule:Eprocess.Highest_slot g rng ~start
  | Engine.Srw -> Srw.create g rng ~start
  | Engine.Lazy_srw -> Srw.create_lazy g rng ~start
  | Engine.Rotor -> Rotor.create ~randomize_rotors:true g rng ~start
  | Engine.E_adversarial _ -> invalid_arg "view_of"

let check_w1_identity ~name g ~seed proc =
  let start = 0 in
  let view_rng = Rng.create ~seed () in
  let view = view_of proc g view_rng ~start in
  let root = Rng.create ~seed () in
  let eng = Engine.create proc g root ~starts:[| start |] in
  let view_cover, view_evs =
    collect_engine_events view (fun () ->
        Cover.run_until_vertex_cover (Engine.process view))
  in
  let eng_cover, eng_evs =
    collect_engine_events eng (fun () ->
        Cover.run_until_vertex_cover (Engine.process eng))
  in
  Alcotest.(check (option int)) (name ^ ": cover step") view_cover eng_cover;
  Alcotest.(check (list event_list)) (name ^ ": event stream") view_evs
    eng_evs;
  Alcotest.(check int) (name ^ ": position") (Engine.position view)
    (Engine.position eng);
  Alcotest.(check int) (name ^ ": steps") (Engine.steps view) (Engine.steps eng);
  Alcotest.(check (array bool))
    (name ^ ": visited edges")
    (Coverage.visited_edge_flags (Engine.coverage view))
    (Coverage.visited_edge_flags (Engine.coverage eng));
  Alcotest.(check (array int64))
    (name ^ ": the view advanced the caller's generator with its lane")
    (lane_words eng 0) (Rng.save view_rng);
  Alcotest.(check (array int64))
    (name ^ ": create left the root alone")
    (Rng.save (Rng.create ~seed ()))
    (Rng.save root)

let w1_identity_euar () =
  check_w1_identity ~name:"e-uar" (Lazy.force fixture_regular) ~seed:11
    Engine.E_uar

let w1_identity_elowest () =
  check_w1_identity ~name:"e-lowest" (Lazy.force fixture_regular) ~seed:12
    Engine.E_lowest

let w1_identity_ehighest () =
  check_w1_identity ~name:"e-highest" (Lazy.force fixture_regular) ~seed:13
    Engine.E_highest

let w1_identity_srw () =
  check_w1_identity ~name:"srw" (Gen_classic.hypercube 4) ~seed:14 Engine.Srw;
  check_w1_identity ~name:"lazy-srw" (Gen_classic.hypercube 4) ~seed:14
    Engine.Lazy_srw

let w1_identity_rotor () =
  check_w1_identity ~name:"rotor" (Lazy.force fixture_regular) ~seed:15
    Engine.Rotor;
  (* Rotor offsets after the run: engine vs view, vertex by vertex. *)
  let g = Gen_classic.hypercube 3 in
  let p = Rotor.create ~randomize_rotors:true g (Rng.create ~seed:15 ()) ~start:0 in
  let eng =
    Engine.create Engine.Rotor g (Rng.create ~seed:15 ()) ~starts:[| 0 |]
  in
  for _ = 1 to 100 do
    Rotor.step p;
    Engine.step eng
  done;
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "rotor offset at %d" v)
      (Rotor.rotor_offset p v) (Engine.rotor_offset eng 0 v)
  done

(* Both constructions on every process, on generated graphs, shrunk by
   QCheck toward a minimal divergence if one exists. *)
let prop_w1_equals_legacy =
  QCheck.Test.make ~name:"W=1 kernel equals legacy walk on generated graphs"
    ~count:30
    QCheck.(
      quad (int_range 0 4) (int_range 0 5) (int_range 8 32) (int_range 0 999))
    (fun (fam, proc_i, size, seed) ->
      let grng = Rng.create ~seed:(1 + (seed * 3) + fam) () in
      let g =
        match fam with
        | 0 -> Gen_regular.random_regular_connected grng (max 10 size) 4
        | 1 ->
            let s = max 10 size in
            let s = if s mod 2 = 1 then s + 1 else s in
            Gen_regular.random_regular_connected grng s 3
        | 2 -> Gen_classic.hypercube (3 + (size mod 2))
        | 3 -> Gen_classic.lollipop (4 + (size mod 5)) (4 + (seed mod 5))
        | _ -> Gen_random.gnp grng (max 8 size) 0.3
      in
      QCheck.assume (Graph.n g > 0 && Graph.min_degree g > 0);
      QCheck.assume (Traversal.is_connected g);
      let proc =
        [| Engine.E_uar; Engine.E_lowest; Engine.E_highest; Engine.Srw;
           Engine.Lazy_srw; Engine.Rotor |].(proc_i)
      in
      let view_rng = Rng.create ~seed () in
      let view = view_of proc g view_rng ~start:0 in
      let view_cover = Cover.run_until_vertex_cover (Engine.process view) in
      let eng = Engine.create proc g (Rng.create ~seed ()) ~starts:[| 0 |] in
      let eng_cover = Cover.run_until_vertex_cover (Engine.process eng) in
      if
        view_cover <> eng_cover
        || Engine.position view <> Engine.position eng
        || Engine.steps view <> Engine.steps eng
        || Rng.save view_rng <> lane_words eng 0
      then
        QCheck.Test.fail_reportf
          "divergence (n=%d m=%d proc=%d): view cover=%s pos=%d steps=%d, \
           engine cover=%s pos=%d steps=%d"
          (Graph.n g) (Graph.m g) proc_i
          (match view_cover with None -> "-" | Some c -> string_of_int c)
          (Engine.position view) (Engine.steps view)
          (match eng_cover with None -> "-" | Some c -> string_of_int c)
          (Engine.position eng) (Engine.steps eng)
      else true)

(* -- cooperating-mode semantics ---------------------------------------------- *)

(* Shared coverage is exactly the union of the starts and every vertex
   any walker stepped onto — monotone along the way.  Exact set equality
   gives both directions: the shared set is a superset of any single
   member's trail, and contains nothing no walker produced. *)
let prop_coop_coverage_union =
  QCheck.Test.make ~name:"cooperating coverage = union of member trails"
    ~count:30
    QCheck.(triple (int_range 1 6) (int_range 10 40) (int_range 0 999))
    (fun (walkers, size, seed) ->
      let grng = Rng.create ~seed:(size + seed) () in
      let g = Gen_regular.random_regular_connected grng size 4 in
      QCheck.assume (Traversal.is_connected g);
      let rng = Rng.create ~seed () in
      let eng = Engine.create_spread Engine.E_uar g rng ~walkers in
      let seen = Array.make (Graph.n g) false in
      Array.iter (fun v -> seen.(v) <- true) (Engine.positions eng);
      let monotone = ref true in
      let last = ref (Coverage.vertices_visited (Engine.coverage eng)) in
      Engine.set_observer eng
        (Some
           (fun ~walker:_ ev ->
             match ev with
             | Trace.Step { vertex; _ } -> seen.(vertex) <- true
             | _ -> ()));
      for _ = 1 to 20 * Graph.n g do
        Engine.step eng;
        let now = Coverage.vertices_visited (Engine.coverage eng) in
        if now < !last then monotone := false;
        last := now
      done;
      let cov = Engine.coverage eng in
      let union_ok = ref true in
      for v = 0 to Graph.n g - 1 do
        if Coverage.vertex_visited cov v <> seen.(v) then union_ok := false
      done;
      if not !monotone then QCheck.Test.fail_report "coverage regressed";
      if not !union_ok then
        QCheck.Test.fail_report "shared coverage <> union of member trails";
      true)

(* Walker step counters partition the global clock, and blue + red =
   total per walker. *)
let coop_counters_partition () =
  let g = Lazy.force fixture_regular in
  let eng =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:3 ()) ~walkers:5
  in
  Engine.run_rounds eng 40;
  let total = ref 0 in
  for w = 0 to 4 do
    total := !total + Engine.walker_steps eng w;
    Alcotest.(check int) "blue+red=steps"
      (Engine.walker_steps eng w)
      (Engine.walker_blue_steps eng w + Engine.walker_red_steps eng w)
  done;
  Alcotest.(check int) "walker steps partition the clock" (Engine.steps eng)
    !total;
  Alcotest.(check int) "round-robin balance" 40 (Engine.rounds eng)

(* -- differential battery ---------------------------------------------------- *)

(* The stock kernel battery (engine vs naive oracle, all five processes,
   both modes) must pass, and the report must be identical at jobs=1 and
   jobs=4.  EWALK_KERNEL_FULL=1 widens to the full 3-seed, W<=17 matrix
   (the `make test-kernel` configuration). *)
let kernel_cases () =
  if Sys.getenv_opt "EWALK_KERNEL_FULL" <> None then
    Differential.stock_kernel_cases ()
  else Differential.stock_kernel_cases ~walkers:[ 1; 4 ] ~seeds:[ 1 ] ()

let fail_lines failures =
  String.concat "\n" (List.map (fun (n, m) -> n ^ ": " ^ m) failures)

let kernel_battery_jobs_agree () =
  let cases = kernel_cases () in
  let r1 = Differential.run_kernel_suite ~jobs:1 cases in
  if r1.Differential.failures <> [] then
    Alcotest.failf "kernel battery (jobs=1):\n%s"
      (fail_lines r1.Differential.failures);
  let r4 = Differential.run_kernel_suite ~jobs:4 cases in
  if r4.Differential.failures <> [] then
    Alcotest.failf "kernel battery (jobs=4):\n%s"
      (fail_lines r4.Differential.failures);
  Alcotest.(check string) "reports identical across job counts"
    (Differential.report_line r1)
    (Differential.report_line r4);
  Alcotest.(check int) "case count" (List.length cases) r1.Differential.cases

(* W=17 exceeds the hypercube-4 vertex count on purpose: more walkers
   than vertices is legal and must still agree with the oracle. *)
let kernel_battery_w17_smoke () =
  let cases =
    List.filter
      (fun c -> c.Differential.k_label = "hypercube4")
      (Differential.stock_kernel_cases ~walkers:[ 17 ] ~seeds:[ 2 ] ())
  in
  Alcotest.(check bool) "cases exist" true (cases <> []);
  let r = Differential.run_kernel_suite ~jobs:2 cases in
  if r.Differential.failures <> [] then
    Alcotest.failf "W=17 battery:\n%s" (fail_lines r.Differential.failures)

(* -- parallel run equivalence ------------------------------------------------ *)

(* Competing walkers own disjoint state slices, so run_rounds over a pool
   must land bit-identically on the sequential result. *)
let competing_pool_equals_sequential () =
  let g = Lazy.force fixture_regular in
  let mk () =
    Engine.create_spread ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:77 ()) ~walkers:8
  in
  let seq = mk () and par = mk () in
  Engine.run_rounds seq 150;
  Pool.with_pool ~jobs:4 (fun pool -> Engine.run_rounds ~pool par 150);
  Alcotest.(check (array int)) "positions" (Engine.positions seq)
    (Engine.positions par);
  for w = 0 to 7 do
    Alcotest.(check int) "steps" (Engine.walker_steps seq w)
      (Engine.walker_steps par w);
    Alcotest.(check int) "blue" (Engine.walker_blue_steps seq w)
      (Engine.walker_blue_steps par w);
    let cs = Engine.walker_coverage seq w and cp = Engine.walker_coverage par w in
    Alcotest.(check int) "vertices" (Coverage.vertices_visited cs)
      (Coverage.vertices_visited cp);
    Alcotest.(check int) "edges" (Coverage.edges_visited cs)
      (Coverage.edges_visited cp);
    Alcotest.(check (option int)) "cover step" (Coverage.vertex_cover_step cs)
      (Coverage.vertex_cover_step cp);
    if Coverage.visited_edge_flags cs <> Coverage.visited_edge_flags cp then
      Alcotest.failf "visited-set mismatch: walker %d" w
  done

(* -- mutation kills ---------------------------------------------------------- *)

(* A kernel that skips the unvisited-edge preference must be caught by
   the invariant monitor as a Preference violation. *)
let mutation_skip_preference_killed () =
  let g = Lazy.force fixture_regular in
  let eng = Engine.create Engine.E_uar g (Rng.create ~seed:21 ()) ~starts:[| 0 |] in
  Engine.set_fault eng (Some Engine.Skip_preference);
  let monitor = Invariant.create g ~start:0 in
  let first = ref None in
  Engine.set_observer eng
    (Some
       (fun ~walker:_ ev ->
         match ev with
         | Trace.Step { step; vertex; edge; blue } ->
             let v = Invariant.on_step monitor ~step ~vertex ~edge ~blue in
             if !first = None then first := v
         | _ -> ()));
  (let i = ref 0 in
   while !first = None && !i < 200 do
     Engine.step eng;
     incr i
   done);
  match !first with
  | None -> Alcotest.fail "Skip_preference escaped the monitor"
  | Some v ->
      Alcotest.(check string) "violation kind"
        (Invariant.kind_name Invariant.Preference)
        (Invariant.kind_name v.Invariant.v_kind)

(* A torn struct-of-arrays update (walker w's new position written to
   walker w+1's slot) breaks per-walker trajectory continuity: some
   walker's stream reports an edge not incident to where that walker
   stands.  Per-walker monitors over the competing engine must flag it
   as Edge_invalid. *)
let mutation_torn_soa_killed () =
  let g = Lazy.force fixture_regular in
  let starts = [| 0; Graph.n g / 2; 1; (Graph.n g / 2) + 7 |] in
  let eng =
    Engine.create ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:31 ()) ~starts
  in
  Engine.set_fault eng (Some Engine.Torn_soa);
  let monitors =
    Array.map (fun s -> Invariant.create g ~start:s) starts
  in
  let caught = ref None in
  Engine.set_observer eng
    (Some
       (fun ~walker ev ->
         match ev with
         | Trace.Step { step; vertex; edge; blue } ->
             let v = Invariant.on_step monitors.(walker) ~step ~vertex ~edge ~blue in
             if !caught = None then caught := v
         | _ -> ()));
  (let i = ref 0 in
   while !caught = None && !i < 400 do
     Engine.step eng;
     incr i
   done);
  match !caught with
  | None -> Alcotest.fail "Torn_soa escaped the per-walker monitors"
  | Some v ->
      Alcotest.(check string) "violation kind"
        (Invariant.kind_name Invariant.Edge_invalid)
        (Invariant.kind_name v.Invariant.v_kind)

(* Reusing walker 0's PRNG word for every walker desynchronises walkers
   1.. from their oracle streams — the lockstep differential must see the
   positions diverge. *)
let mutation_reuse_prng_killed () =
  let g = Lazy.force fixture_regular in
  let starts = [| 0; 12; 24; 36 |] in
  let eng =
    Engine.create ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  Engine.set_fault eng (Some Engine.Reuse_prng_word);
  let orc =
    Oracle.Kernel.create ~mode:Oracle.Kernel.Competing Oracle.Kernel.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  let diverged = ref false in
  let i = ref 0 in
  while (not !diverged) && !i < 800 do
    Engine.step eng;
    Oracle.Kernel.step orc;
    for w = 0 to 3 do
      if Engine.walker_position eng w <> Oracle.Kernel.walker_position orc w
      then diverged := true
    done;
    incr i
  done;
  Alcotest.(check bool) "lockstep divergence detected" true !diverged

(* Sanity for the battery itself: an unfaulted engine does NOT diverge
   over the same horizon — the kill above is the fault's doing. *)
let mutation_control_clean () =
  let g = Lazy.force fixture_regular in
  let starts = [| 0; 12; 24; 36 |] in
  let eng =
    Engine.create ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  let orc =
    Oracle.Kernel.create ~mode:Oracle.Kernel.Competing Oracle.Kernel.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  for _ = 1 to 800 do
    Engine.step eng;
    Oracle.Kernel.step orc
  done;
  for w = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "walker %d in lockstep" w)
      (Oracle.Kernel.walker_position orc w)
      (Engine.walker_position eng w)
  done

(* -- Team per-walker streams (regression) ------------------------------------ *)

(* Team walkers (cooperating E_uar walkers spread from one generator)
   must draw from per-walker derived streams, never a shared or
   trial-index-reseeded one: the lanes have to be pairwise distinct at
   creation. *)
let team_walker_streams_distinct () =
  let g = Lazy.force fixture_regular in
  let team =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:6 ()) ~walkers:4
  in
  let words = (Engine.checkpoint team).Engine.ck_prng in
  Alcotest.(check int) "4 words per walker" 16 (Array.length words);
  let slice w = Array.sub words (4 * w) 4 in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "walkers %d,%d share a stream" i j)
        false
        (slice i = slice j)
    done
  done;
  (* And two teams from different root seeds must not collide either. *)
  let team' =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:7 ()) ~walkers:4
  in
  let words' = (Engine.checkpoint team').Engine.ck_prng in
  Alcotest.(check bool) "teams differ" false (words = words')

(* -- checkpoint / resume ----------------------------------------------------- *)

(* Stop a cooperating W=4 run at step 100, continue both the original and
   a restored copy for 200 more steps: the event tails and the full final
   checkpoints must match bit for bit. *)
let checkpoint_roundtrip_bit_identical () =
  let g = Lazy.force fixture_regular in
  let eng =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:55 ()) ~walkers:4
  in
  for _ = 1 to 100 do
    Engine.step eng
  done;
  let ck = Engine.checkpoint eng in
  let resumed = Engine.of_checkpoint g ck in
  Alcotest.(check int) "restored clock" (Engine.steps eng)
    (Engine.steps resumed);
  Alcotest.(check int) "restored cursor" (Engine.cursor eng)
    (Engine.cursor resumed);
  let run e =
    collect_engine_events e (fun () ->
        for _ = 1 to 200 do
          Engine.step e
        done)
  in
  let (), evs_orig = run eng in
  let (), evs_res = run resumed in
  Alcotest.(check (list event_list)) "continuation event tails" evs_orig
    evs_res;
  Alcotest.(check bool) "final checkpoints identical" true
    (Engine.checkpoint eng = Engine.checkpoint resumed)

let checkpoint_rejects_corruption () =
  let g = Lazy.force fixture_regular in
  let eng =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:56 ()) ~walkers:3
  in
  Engine.run_rounds eng 10;
  let ck = Engine.checkpoint eng in
  let bad_cursor = { ck with Engine.ck_cursor = 9 } in
  Alcotest.check_raises "cursor out of range"
    (Invalid_argument "Engine.of_checkpoint: cursor out of range") (fun () ->
      ignore (Engine.of_checkpoint g bad_cursor));
  let wsteps = Array.copy ck.Engine.ck_wsteps in
  wsteps.(0) <- wsteps.(0) + 1;
  let bad_steps = { ck with Engine.ck_wsteps = wsteps } in
  Alcotest.check_raises "inconsistent counters"
    (Invalid_argument "Engine.of_checkpoint: inconsistent step counters")
    (fun () -> ignore (Engine.of_checkpoint g bad_steps));
  let competing =
    Engine.create_spread ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:57 ()) ~walkers:2
  in
  Engine.run_rounds competing 200;
  let cck = Engine.checkpoint competing in
  Alcotest.(check bool) "competing round trip" true
    (Engine.checkpoint (Engine.of_checkpoint g cck) = cck);
  (* Walker 0 has covered: its cover step must stay set and within its
     own clock. *)
  let with_cover_step c =
    let cov = Array.copy cck.Engine.ck_coverage in
    cov.(0) <- { cov.(0) with Coverage.s_vertex_cover_step = c };
    { cck with Engine.ck_coverage = cov }
  in
  Alcotest.check_raises "covered but no cover step"
    (Invalid_argument
       "Coverage.restore: vertex cover step -1 disagrees with the vertex set")
    (fun () -> ignore (Engine.of_checkpoint g (with_cover_step (-1))));
  Alcotest.check_raises "cover step past the walker's clock"
    (Invalid_argument "Coverage.restore: vertex cover step 201 is past the clock 200")
    (fun () -> ignore (Engine.of_checkpoint g (with_cover_step 201)));
  (* After 30 steps the cooperating walkers have not seen every vertex. *)
  let pos = Array.copy ck.Engine.ck_pos in
  pos.(1) <- 0;
  while Coverage.vertex_visited (Engine.coverage eng) pos.(1) do
    pos.(1) <- pos.(1) + 1
  done;
  Alcotest.check_raises "position not marked seen"
    (Invalid_argument "Engine.of_checkpoint: walker position not marked seen")
    (fun () -> ignore (Engine.of_checkpoint g { ck with Engine.ck_pos = pos }))

(* -- argument validation ----------------------------------------------------- *)

let create_validation () =
  let g = Gen_classic.cycle 5 in
  let rng () = Rng.create ~seed:1 () in
  Alcotest.check_raises "no walkers"
    (Invalid_argument "Engine.create: no walkers") (fun () ->
      ignore (Engine.create Engine.E_uar g (rng ()) ~starts:[||]));
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Engine.create: start out of range") (fun () ->
      ignore (Engine.create Engine.E_uar g (rng ()) ~starts:[| 5 |]));
  Alcotest.check_raises "spread walkers < 1"
    (Invalid_argument "Engine.create_spread: walkers < 1") (fun () ->
      ignore (Engine.create_spread Engine.E_uar g (rng ()) ~walkers:0));
  let competing =
    Engine.create ~mode:Engine.Competing Engine.E_uar g (rng ())
      ~starts:[| 0; 1 |]
  in
  Alcotest.check_raises "competing has no shared coverage"
    (Invalid_argument "Engine.coverage: competing mode has no shared coverage")
    (fun () -> ignore (Engine.coverage competing));
  let coop = Engine.create Engine.E_uar g (rng ()) ~starts:[| 0 |] in
  Alcotest.check_raises "no such walker"
    (Invalid_argument "Engine.walker_coverage: no such walker") (fun () ->
      ignore (Engine.walker_coverage coop 1))

(* -- competing first-cover --------------------------------------------------- *)

let competing_first_cover () =
  let g = Gen_classic.hypercube 3 in
  let eng =
    Engine.create_spread ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:9 ()) ~walkers:4
  in
  match Engine.run_until_first_cover eng with
  | None -> Alcotest.fail "no walker covered the hypercube"
  | Some (w, s) ->
      Alcotest.(check bool) "winner in range" true (w >= 0 && w < 4);
      let cov w = Engine.walker_coverage eng w in
      Alcotest.(check (option int)) "winner's recorded cover step" (Some s)
        (Coverage.vertex_cover_step (cov w));
      Alcotest.(check int) "winner saw every vertex" (Graph.n g)
        (Coverage.vertices_visited (cov w));
      (* No loser covered strictly earlier. *)
      for w' = 0 to 3 do
        match Coverage.vertex_cover_step (cov w') with
        | Some s' -> Alcotest.(check bool) "first" true (s' >= s)
        | None -> ()
      done

(* -- allocation ----------------------------------------------------------- *)

(* An unobserved step allocates nothing, for every checkpointable process
   as a one-walker walk, a cooperating team and a competing team, over a
   blue-then-red run on an n = 10^4 4-regular graph.  The warm-up moves
   each walk off its start; the empty measurement cancels whatever the
   probe itself costs. *)
let unobserved_steps_allocate_nothing () =
  let g =
    Gen_regular.random_regular_connected (Rng.create ~seed:77 ()) 10_000 4
  in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let probe = minor_words ignore in
  let procs =
    Engine.[ E_uar; E_lowest; E_highest; Srw; Lazy_srw; Rotor ]
  in
  let shapes =
    [
      ("W=1", fun p -> Engine.single p g (Rng.create ~seed:5 ()) ~start:0);
      ( "cooperating W=4",
        fun p -> Engine.create_spread p g (Rng.create ~seed:5 ()) ~walkers:4 );
      ( "competing W=4",
        fun p ->
          Engine.create_spread ~mode:Engine.Competing p g
            (Rng.create ~seed:5 ()) ~walkers:4 );
    ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun (shape, make) ->
          let eng = make p in
          Engine.run_steps eng 100;
          let words =
            minor_words (fun () -> Engine.run_steps eng 30_000) -. probe
          in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s %s minor words" (Engine.proc_name p) shape)
            0. words)
        shapes)
    procs

let () =
  Alcotest.run "kernel"
    [
      ( "packed",
        [
          Alcotest.test_case "replicates Rng.stream" `Quick
            lanes_replicate_streams;
          Alcotest.test_case "root not advanced" `Quick
            engine_root_not_advanced;
          Alcotest.test_case "save/restore round-trip" `Quick
            rng_save_restore;
          Alcotest.test_case "copy snapshots" `Quick rng_copy_snapshots;
          qcheck prop_rng_equals_xoshiro;
        ] );
      ( "streams",
        [
          Alcotest.test_case "derived streams distinct, root pure" `Quick
            stream_distinct_and_pure;
        ] );
      ( "w1-identity",
        [
          Alcotest.test_case "e-process uar" `Quick w1_identity_euar;
          Alcotest.test_case "e-process lowest" `Quick w1_identity_elowest;
          Alcotest.test_case "e-process highest" `Quick w1_identity_ehighest;
          Alcotest.test_case "srw" `Quick w1_identity_srw;
          Alcotest.test_case "rotor" `Quick w1_identity_rotor;
          qcheck prop_w1_equals_legacy;
        ] );
      ( "cooperating",
        [
          qcheck prop_coop_coverage_union;
          Alcotest.test_case "counters partition the clock" `Quick
            coop_counters_partition;
        ] );
      ( "differential",
        [
          Alcotest.test_case "stock battery, jobs 1 = jobs 4" `Quick
            kernel_battery_jobs_agree;
          Alcotest.test_case "W=17 on a small graph" `Quick
            kernel_battery_w17_smoke;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pool run equals sequential" `Quick
            competing_pool_equals_sequential;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "skip-preference killed" `Quick
            mutation_skip_preference_killed;
          Alcotest.test_case "torn-SoA killed" `Quick mutation_torn_soa_killed;
          Alcotest.test_case "reused PRNG word killed" `Quick
            mutation_reuse_prng_killed;
          Alcotest.test_case "unfaulted control stays clean" `Quick
            mutation_control_clean;
        ] );
      ( "team",
        [
          Alcotest.test_case "per-walker streams distinct" `Quick
            team_walker_streams_distinct;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip bit-identical" `Quick
            checkpoint_roundtrip_bit_identical;
          Alcotest.test_case "rejects corruption" `Quick
            checkpoint_rejects_corruption;
        ] );
      ( "validation",
        [ Alcotest.test_case "create/mode guards" `Quick create_validation ] );
      ( "competing",
        [ Alcotest.test_case "first cover" `Quick competing_first_cover ] );
      ( "allocation",
        [
          Alcotest.test_case "unobserved steps allocate nothing" `Quick
            unobserved_steps_allocate_nothing;
        ] );
    ]
