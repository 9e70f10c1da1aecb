(* Tests for the domain pool and the parallel-determinism contract:
   Pool.map_array agrees with Array.map (qcheck, arbitrary arrays and
   chunk sizes), exceptions propagate and leave the pool reusable, trial
   sweeps and whole experiment tables are bit-identical across job counts,
   and the metrics registry survives concurrent hammering from several
   domains without losing a single increment. *)

module Pool = Ewalk_par.Pool
module Sweep = Ewalk_expt.Sweep
module Metrics = Ewalk_obs.Metrics
module Progress = Ewalk_obs.Progress
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* -- Pool basics ------------------------------------------------------------ *)

let pool_jobs_validated () =
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1 (got 0)") (fun () ->
      ignore (Pool.create ~jobs:0 ()));
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check int) "jobs as given" 3 (Pool.jobs p));
  Alcotest.(check bool) "default_jobs positive" true (Pool.default_jobs () >= 1)

let pool_map_array_basic () =
  Pool.with_pool ~jobs:4 (fun p ->
      let src = Array.init 100 (fun i -> i) in
      let got = Pool.map_array p (fun x -> (2 * x) + 1) src in
      Alcotest.(check (array int))
        "map_array = Array.map"
        (Array.map (fun x -> (2 * x) + 1) src)
        got)

let pool_map_array_empty_and_single () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map_array p succ [||]);
      Alcotest.(check (array int))
        "singleton" [| 8 |]
        (Pool.map_array p succ [| 7 |]))

let pool_run_order () =
  Pool.with_pool ~jobs:3 (fun p ->
      let got = Pool.run p [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ] in
      Alcotest.(check (list int)) "positional results" [ 1; 2; 3 ] got)

let pool_sequential_at_one_job () =
  (* jobs=1 must not spawn: the mapped function sees the calling domain. *)
  Pool.with_pool ~jobs:1 (fun p ->
      let self = Domain.self () in
      let domains =
        Pool.map_array p (fun _ -> Domain.self ()) (Array.make 8 ())
      in
      Array.iter
        (fun d ->
          Alcotest.(check bool) "ran on the calling domain" true (d = self))
        domains)

exception Boom of int

let pool_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun p ->
      let src = Array.init 64 (fun i -> i) in
      (try
         ignore (Pool.map_array p (fun x -> if x = 13 then raise (Boom x) else x) src);
         Alcotest.fail "expected Boom to propagate"
       with Boom 13 -> ());
      (* The batch failure must not poison the pool. *)
      let got = Pool.map_array p (fun x -> x * x) src in
      Alcotest.(check (array int))
        "pool reusable after failure"
        (Array.map (fun x -> x * x) src)
        got)

let pool_shutdown_rejects () =
  let p = Pool.create ~jobs:2 () in
  Pool.shutdown p;
  Alcotest.check_raises "map_array on a shut-down pool raises"
    (Invalid_argument "Pool: submit to a shut-down pool") (fun () ->
      ignore (Pool.map_array p succ [| 1; 2 |]))

let pool_lane_telemetry () =
  Pool.with_pool ~jobs:3 (fun p ->
      let before = Pool.stats p in
      Alcotest.(check int) "one report per lane" 3 (Array.length before);
      let busy_work x =
        let acc = ref x in
        for i = 1 to 50_000 do
          acc := (!acc + i) land 0xFFFF
        done;
        !acc
      in
      let src = Array.init 64 (fun i -> i) in
      ignore (Pool.map_array ~chunk:4 p busy_work src);
      let lanes = Pool.stats p in
      let total_chunks =
        Array.fold_left (fun a l -> a + l.Pool.chunks_served) 0 lanes
      in
      Alcotest.(check int) "every chunk claimed exactly once" 16 total_chunks;
      Array.iteri
        (fun i l ->
          Alcotest.(check bool)
            (Printf.sprintf "lane %d busy_s >= 0" i)
            true (l.Pool.busy_s >= 0.0);
          Alcotest.(check bool)
            (Printf.sprintf "lane %d wait_s >= 0" i)
            true (l.Pool.wait_s >= 0.0))
        lanes;
      Alcotest.(check int) "caller ran one batch" 1 lanes.(0).Pool.tasks_served;
      Alcotest.(check bool) "somebody was busy" true
        (Array.exists (fun l -> l.Pool.busy_s > 0.0) lanes);
      (* The utilization line carries the job count and the chunk total. *)
      let line = Pool.utilization_line p ~wall_s:1.0 in
      let contains needle =
        let n = String.length needle and l = String.length line in
        let rec scan i =
          i + n <= l && (String.sub line i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "line mentions jobs and chunks: %s" line)
        true
        (contains "jobs=3" && contains "chunks=16");
      Pool.reset_stats p;
      let zeroed = Pool.stats p in
      Array.iter
        (fun l ->
          Alcotest.(check int) "chunks zeroed" 0 l.Pool.chunks_served;
          Alcotest.(check (float 0.0)) "busy zeroed" 0.0 l.Pool.busy_s)
        zeroed)

(* -- qcheck: map_array ≡ Array.map across arrays, chunks, job counts ------- *)

let prop_map_array_agrees =
  QCheck.Test.make ~name:"Pool.map_array f = Array.map f" ~count:60
    QCheck.(
      triple (array small_int) (int_range 1 10) (int_range 1 4))
    (fun (xs, chunk, jobs) ->
      Pool.with_pool ~jobs (fun p ->
          let f x = (3 * x) - 7 in
          Pool.map_array ~chunk p f xs = Array.map f xs))

let prop_run_agrees =
  QCheck.Test.make ~name:"Pool.run = List.map force" ~count:40
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (xs, jobs) ->
      Pool.with_pool ~jobs (fun p ->
          Pool.run p (List.map (fun x () -> x * x) xs)
          = List.map (fun x -> x * x) xs))

(* -- determinism across job counts ----------------------------------------- *)

let trial_workload rng =
  (* A real (graph + walk) workload so per-trial RNG independence is
     actually exercised, not just a pure function of the index. *)
  let g = Ewalk_graph.Gen_regular.random_regular_connected rng 150 4 in
  match
    Ewalk.Cover.run_until_vertex_cover
      ~cap:(Ewalk.Cover.default_cap g)
      (Ewalk.Eprocess.process (Ewalk.Eprocess.create g rng ~start:0))
  with
  | Some t -> float_of_int t
  | None -> Float.nan

let with_jobs jobs f =
  Pool.with_pool ~jobs (fun p -> f (Some p))

let determinism_mean_of_trials () =
  let run pool = Sweep.mean_of_trials ?pool ~seed:7 ~trials:6 trial_workload in
  let seq = run None in
  List.iter
    (fun jobs ->
      let par = with_jobs jobs run in
      Alcotest.(check bool)
        (Printf.sprintf "summary identical at jobs=%d" jobs)
        true (par = seq))
    [ 1; 2; 4 ]

let determinism_map_trials_positions () =
  (* Result i must come from generator i, for every job count. *)
  let rngs () = Sweep.trial_rngs ~seed:3 ~trials:8 in
  let seq = Sweep.map_trials (fun rng -> Rng.int rng 1_000_000) (rngs ()) in
  List.iter
    (fun jobs ->
      let par =
        with_jobs jobs (fun pool ->
            Sweep.map_trials ?pool (fun rng -> Rng.int rng 1_000_000) (rngs ()))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "positional at jobs=%d" jobs)
        seq par)
    [ 1; 2; 4 ]

let determinism_env_default_pool () =
  (* A pool sized by the environment (EWALK_JOBS — this is what
     `make test-par` varies) must agree with the sequential path. *)
  let seq = Sweep.mean_of_trials ~seed:11 ~trials:5 trial_workload in
  let par =
    Pool.with_pool (fun p ->
        Sweep.mean_of_trials ~pool:p ~seed:11 ~trials:5 trial_workload)
  in
  Alcotest.(check bool)
    (Printf.sprintf "identical under EWALK_JOBS default (%d jobs)"
       (Pool.default_jobs ()))
    true (par = seq)

let determinism_exp_cover_table () =
  (* A full experiment table — rendered text, notes and all — must be
     bit-identical across job counts. *)
  let render pool =
    Ewalk_expt.Table.render
      (Ewalk_expt.Exp_cover.fig1 ~pool ~scale:Ewalk_expt.Sweep.Tiny ~seed:2)
  in
  let seq = render None in
  List.iter
    (fun jobs ->
      let par = with_jobs jobs render in
      Alcotest.(check string)
        (Printf.sprintf "fig1 table identical at jobs=%d" jobs)
        seq par)
    [ 1; 2; 4 ]

let determinism_gauges_across_jobs () =
  (* Gauges written through [Observe.for_trial] resolve last-by-trial-index
     ([Metrics.set_at]), so the final metrics snapshot — graph-size gauges,
     coverage fractions and all — is pinned to the highest trial index, not
     to whichever lane happened to finish last.  The whole snapshot must be
     bit-identical at every job count.  Trials get different graph sizes so
     a wrong winner is visible. *)
  let snapshot pool =
    let metrics = Metrics.create () in
    let obs = Ewalk.Observe.create ~metrics () in
    let rngs = Sweep.trial_rngs ~seed:19 ~trials:8 in
    let indexed = Array.mapi (fun i rng -> (i, rng)) rngs in
    let run_trial (trial, rng) =
      let g = Ewalk_graph.Gen_regular.cycle_union rng (16 + (2 * trial)) 2 in
      let t = Ewalk.Eprocess.create g rng ~start:0 in
      let o = Ewalk.Observe.for_trial obs ~trial in
      Ewalk.Observe.attach o t;
      let p = Ewalk.Observe.instrument o (Ewalk.Eprocess.process t) in
      let cover =
        Ewalk.Cover.run_until_vertex_cover ~cap:(Ewalk.Cover.default_cap g) p
      in
      Ewalk.Observe.finish o p;
      match cover with Some c -> c | None -> -1
    in
    (match pool with
    | None -> ignore (Array.map run_trial indexed)
    | Some p -> ignore (Pool.map_array p run_trial indexed));
    Metrics.to_json_string metrics
  in
  let seq = snapshot None in
  let contains needle =
    let nh = String.length seq and nn = String.length needle in
    let rec go i =
      if i + nn > nh then false
      else String.sub seq i nn = needle || go (i + 1)
    in
    go 0
  in
  (* Sanity: the gauges pin trial 7's graph (n = 16 + 2*7 = 30). *)
  Alcotest.(check bool) "gauges hold the last trial's graph size" true
    (contains {|"graph_vertices":30.0|});
  List.iter
    (fun jobs ->
      let par = with_jobs jobs snapshot in
      Alcotest.(check string)
        (Printf.sprintf "metrics snapshot identical at jobs=%d" jobs)
        seq par)
    [ 1; 2; 4 ]

(* -- Metrics under concurrency ---------------------------------------------- *)

let metrics_concurrent_counters () =
  let m = Metrics.create () in
  let domains = 4 and bumps = 25_000 in
  let shared = Metrics.counter m "shared" in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let own = Metrics.counter m (Printf.sprintf "own-%d" d) in
            let h = Metrics.histogram m (Printf.sprintf "hist-%d" d) in
            for i = 1 to bumps do
              Metrics.incr shared;
              Metrics.add own 2;
              if i land 255 = 0 then Metrics.observe h (float_of_int i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost shared increments" (domains * bumps)
    (Metrics.value shared);
  for d = 0 to domains - 1 do
    Alcotest.(check int)
      (Printf.sprintf "own-%d exact" d)
      (2 * bumps)
      (Metrics.value (Metrics.counter m (Printf.sprintf "own-%d" d)));
    Alcotest.(check int)
      (Printf.sprintf "hist-%d observation count" d)
      (bumps / 256)
      (Metrics.hist_count (Metrics.histogram m (Printf.sprintf "hist-%d" d)))
  done;
  (* The snapshot must still be well-formed, deterministic JSON. *)
  let json = Metrics.to_json_string m in
  Alcotest.(check bool) "snapshot non-empty" true (String.length json > 0);
  Alcotest.(check string) "snapshot deterministic" json
    (Metrics.to_json_string m)

let metrics_concurrent_gauge_max () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "peak" in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 10_000 do
              Metrics.set_max g (float_of_int ((i * 4) + d))
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check (float 0.0)) "running max survives the race" 40_003.0
    (Metrics.gauge_value g)

let progress_concurrent_ticks () =
  let buf = Buffer.create 256 in
  (* A reporter on an in-memory channel is awkward; use a suppressed one and
     check the tick counting via finish on a real file channel instead. *)
  ignore buf;
  let path = Filename.temp_file "ewalk-progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let r =
        Progress.create ~out:oc ~interval:0.0 ~total:4_000 ~label:"par" ()
      in
      let workers =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 1_000 do
                  Progress.tick r
                done))
      in
      List.iter Domain.join workers;
      Progress.finish r;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      (* The final line reports every tick from every domain. *)
      let has_total =
        let needle = "4000/4000" in
        let n = String.length needle and l = String.length s in
        let rec scan i =
          i + n <= l && (String.sub s i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) "final line counts all domains' ticks" true
        has_total)

(* -- Fault tolerance -------------------------------------------------------- *)

(* An element that fails its first [fail_times] executions and then
   succeeds — the transient-fault model the retry budget exists for. *)
let flaky_element fail_times =
  let attempts = Atomic.make 0 in
  fun x ->
    let a = Atomic.fetch_and_add attempts 1 in
    if a < fail_times then raise (Boom x) else x * x

let retry_recovers_and_is_recorded () =
  Pool.with_pool ~jobs:4 (fun p ->
      Pool.reset_stats p;
      let flaky = flaky_element 1 in
      let src = Array.init 64 (fun i -> i) in
      let got =
        Pool.map_array ~chunk:4 ~retries:2 p
          (fun x -> if x = 13 then flaky x else x * x)
          src
      in
      Alcotest.(check (array int))
        "retried batch = undisturbed map"
        (Array.map (fun x -> x * x) src)
        got;
      let lanes = Pool.stats p in
      let failed =
        Array.fold_left (fun a l -> a + l.Pool.tasks_failed) 0 lanes
      in
      let retried =
        Array.fold_left (fun a l -> a + l.Pool.tasks_retried) 0 lanes
      in
      Alcotest.(check int) "one failure recorded" 1 failed;
      Alcotest.(check int) "one retry recorded" 1 retried;
      Alcotest.(check int)
        "recovery ran in the caller's lane" 1 lanes.(0).Pool.tasks_retried)

let retry_sequential_path () =
  (* The jobs=1 path honours the same budget (what Sweep relies on). *)
  Pool.with_pool ~jobs:1 (fun p ->
      let flaky = flaky_element 2 in
      let got =
        Pool.map_array ~retries:2 p
          (fun x -> if x = 3 then flaky x else x * x)
          [| 1; 2; 3; 4 |]
      in
      Alcotest.(check (array int)) "sequential retry" [| 1; 4; 9; 16 |] got;
      Alcotest.(check int)
        "retries recorded in lane 0" 2 (Pool.stats p).(0).Pool.tasks_retried)

let retry_exhausted_raises_task_failed () =
  Pool.with_pool ~jobs:4 ~retries:1 (fun p ->
      let src = Array.init 32 (fun i -> i) in
      (try
         ignore
           (Pool.map_array p (fun x -> if x = 7 then raise (Boom x) else x) src);
         Alcotest.fail "expected Task_failed"
       with Pool.Task_failed { index; attempts; last } ->
         Alcotest.(check int) "failing index" 7 index;
         Alcotest.(check int) "budget spent: retries + 1" 2 attempts;
         Alcotest.(check bool) "last failure preserved" true (last = Boom 7));
      (* Exhaustion must not poison the pool. *)
      let got = Pool.map_array p succ src in
      Alcotest.(check (array int))
        "pool reusable after Task_failed" (Array.map succ src) got)

let retry_results_index_ordered () =
  (* A retried batch must still be positional: the recovered element lands
     at its own index, not at completion order. *)
  Pool.with_pool ~jobs:3 (fun p ->
      let flaky = flaky_element 1 in
      let src = Array.init 40 (fun i -> i) in
      let got =
        Pool.map_array ~chunk:1 ~retries:1 p
          (fun x -> if x = 0 then flaky x else x * 10)
          src
      in
      Array.iteri
        (fun i v ->
          Alcotest.(check int)
            (Printf.sprintf "index %d" i)
            (if i = 0 then 0 else i * 10)
            v)
        got)

let timeout_raises_task_timeout () =
  Pool.with_pool ~jobs:2 (fun p ->
      try
        ignore
          (Pool.map_array ~task_timeout_s:0.01 p
             (fun x ->
               if x = 2 then Unix.sleepf 0.1;
               x)
             [| 0; 1; 2; 3 |]);
        Alcotest.fail "expected Task_timeout"
      with Pool.Task_timeout { index; elapsed_s; timeout_s } ->
        Alcotest.(check int) "overlong index" 2 index;
        Alcotest.(check bool) "elapsed exceeds budget" true
          (elapsed_s > timeout_s))

let injected_lane_failure_retried () =
  (* The Ewalk_resume.Faults wiring: fail-lane:0:once makes exactly one
     element execution on lane 0 raise; a positive budget absorbs it and
     the result is unchanged.  jobs=1 so every execution provably runs on
     lane 0 — at higher job counts a helper lane can legitimately drain
     the whole batch before lane 0 takes a chunk, and the injection would
     have nothing to hit. *)
  let spec =
    match Ewalk_resume.Faults.parse "fail-lane:0:once" with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Ewalk_resume.Faults.install spec;
  Fun.protect ~finally:(fun () -> Ewalk_resume.Faults.install Ewalk_resume.Faults.none)
  @@ fun () ->
  Pool.with_pool ~jobs:1 ~retries:1 (fun p ->
      let src = Array.init 16 (fun i -> i) in
      let got = Pool.map_array p (fun x -> x + 100) src in
      Alcotest.(check (array int))
        "injected failure absorbed"
        (Array.map (fun x -> x + 100) src)
        got;
      let lane0 = (Pool.stats p).(0) in
      Alcotest.(check int) "injection recorded once" 1 lane0.Pool.tasks_failed;
      Alcotest.(check int) "recovery recorded" 1 lane0.Pool.tasks_retried)

let injected_failure_bit_identical_sweep () =
  (* End to end through Sweep.map_trials: an injected failure plus retry
     must leave trial results bit-identical to an undisturbed sweep,
     because every trial consumes a copy of its own generator.  The clean
     run uses 2 jobs and the faulted run the sequential path (where the
     lane-0 injection deterministically hits the first trial), so this
     also re-checks bit-identity across job counts. *)
  let f rng = Rng.float rng 1.0 +. Rng.float rng 1.0 in
  let rngs () = Sweep.trial_rngs ~seed:42 ~trials:12 in
  let clean =
    Pool.with_pool ~jobs:2 (fun p -> Sweep.map_trials ~pool:p f (rngs ()))
  in
  let spec =
    match Ewalk_resume.Faults.parse "fail-lane:0:once" with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Ewalk_resume.Faults.install spec;
  Fun.protect ~finally:(fun () -> Ewalk_resume.Faults.install Ewalk_resume.Faults.none)
  @@ fun () ->
  let faulted =
    Pool.with_pool ~jobs:1 ~retries:2 (fun p ->
        let got = Sweep.map_trials ~pool:p f (rngs ()) in
        Alcotest.(check int)
          "injection actually fired" 1 (Pool.stats p).(0).Pool.tasks_failed;
        got)
  in
  Alcotest.(check int) "lengths" (Array.length clean) (Array.length faulted);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d bit-identical" i)
        true
        (Int64.bits_of_float c = Int64.bits_of_float faulted.(i)))
    clean

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs validated" `Quick pool_jobs_validated;
          Alcotest.test_case "map_array basic" `Quick pool_map_array_basic;
          Alcotest.test_case "empty and singleton" `Quick
            pool_map_array_empty_and_single;
          Alcotest.test_case "run order" `Quick pool_run_order;
          Alcotest.test_case "sequential at jobs=1" `Quick
            pool_sequential_at_one_job;
          Alcotest.test_case "exception propagates, pool reusable" `Quick
            pool_exception_propagates;
          Alcotest.test_case "shutdown rejects new batches" `Quick
            pool_shutdown_rejects;
          Alcotest.test_case "lane telemetry" `Quick pool_lane_telemetry;
          qcheck prop_map_array_agrees;
          qcheck prop_run_agrees;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "retry recovers and is recorded" `Quick
            retry_recovers_and_is_recorded;
          Alcotest.test_case "sequential path honours budget" `Quick
            retry_sequential_path;
          Alcotest.test_case "exhausted retries raise Task_failed" `Quick
            retry_exhausted_raises_task_failed;
          Alcotest.test_case "retried results stay index-ordered" `Quick
            retry_results_index_ordered;
          Alcotest.test_case "timeout raises Task_timeout" `Quick
            timeout_raises_task_timeout;
          Alcotest.test_case "injected lane failure retried" `Quick
            injected_lane_failure_retried;
          Alcotest.test_case "injected failure bit-identical sweep" `Quick
            injected_failure_bit_identical_sweep;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "mean_of_trials across jobs" `Slow
            determinism_mean_of_trials;
          Alcotest.test_case "map_trials positional" `Quick
            determinism_map_trials_positions;
          Alcotest.test_case "EWALK_JOBS default pool" `Slow
            determinism_env_default_pool;
          Alcotest.test_case "fig1 table across jobs" `Slow
            determinism_exp_cover_table;
          Alcotest.test_case "gauges across jobs" `Quick
            determinism_gauges_across_jobs;
        ] );
      ( "obs-concurrency",
        [
          Alcotest.test_case "counters exact under domains" `Quick
            metrics_concurrent_counters;
          Alcotest.test_case "gauge running max" `Quick
            metrics_concurrent_gauge_max;
          Alcotest.test_case "progress ticks from domains" `Quick
            progress_concurrent_ticks;
        ] );
    ]
