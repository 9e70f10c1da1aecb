(* Benchmark harness.

   Three sections:

   1. Micro-benchmarks - one kernel per experiment table (E-process
      stepping for the cover-time tables, mat-vec for the spectral table,
      and so on), each measured as warmups plus >= 10 timed repetitions
      and summarised by median / MAD / min (Ewalk_obs.Benchstat).  The
      observability overhead is a median of interleaved paired ratios, so
      it cannot go negative from drift between two separately sampled
      estimates.

   2. The experiment tables themselves - running every experiment of
      DESIGN.md section 4 at the scale selected by EWALK_BENCH_SCALE
      (tiny / default / full) and printing the same rows/series the paper
      reports.  `full` matches the paper's n (Figure 1 up to 5*10^5,
      5 trials per point).

   3. The bench ledger - BENCH_core.json is the machine-readable snapshot
      of this run, and one schema-versioned record per run is appended to
      BENCH_history.jsonl (Ewalk_obs.Ledger), which `eproc bench-diff` /
      `make bench-check` gate regressions against.

   Skip knobs (all env, value "1"): EWALK_BENCH_SKIP_MICRO,
   EWALK_BENCH_SKIP_EXPERIMENTS, EWALK_BENCH_SKIP_PARALLEL,
   EWALK_BENCH_SKIP_FULL (the full-scale stepping kernels and n=10^7
   cover smoke that EWALK_BENCH_SCALE=full otherwise adds).  Output paths:
   EWALK_BENCH_JSON (default BENCH_core.json), EWALK_BENCH_HISTORY
   (default BENCH_history.jsonl). *)

module Rng = Ewalk_prng.Rng
module Graph = Ewalk_graph.Graph
module Benchstat = Ewalk_obs.Benchstat
module Ledger = Ewalk_obs.Ledger
module Prof = Ewalk_obs.Prof

(* -- shared fixtures (built once; kernels must not mutate them) ----------- *)

let fixture_regular =
  lazy
    (let rng = Rng.create ~seed:1234 () in
     Ewalk_graph.Gen_regular.random_regular_connected rng 10_000 4)

let fixture_hypercube = lazy (Ewalk_graph.Gen_classic.hypercube 8)

let fixture_csr =
  lazy (Ewalk_spectral.Spectral.normalized_adjacency (Lazy.force fixture_regular))

(* -- one kernel per experiment table -------------------------------------- *)

let bench_eprocess_steps () =
  (* fig1, thm1-scaling, rule-independence, odd-even-frontier *)
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed:99 () in
  fun () ->
    let t = Ewalk.Eprocess.create g rng ~start:0 in
    Ewalk.Cover.run_steps (Ewalk.Eprocess.process t) 10_000

let bench_srw_steps () =
  (* srw-lower, blanket-r-visits *)
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed:98 () in
  fun () ->
    let t = Ewalk.Srw.create g rng ~start:0 in
    Ewalk.Cover.run_steps (Ewalk.Srw.process t) 10_000

let bench_edge_cover () =
  (* edge-cover-sandwich, hypercube-edge, grw-bound, cor4-edge *)
  let g = Lazy.force fixture_hypercube in
  let rng = Rng.create ~seed:97 () in
  fun () ->
    let t = Ewalk.Eprocess.create g rng ~start:0 in
    ignore (Ewalk.Cover.run_until_edge_cover (Ewalk.Eprocess.process t))

let bench_matvec () =
  (* spectral-p1 *)
  let csr = Lazy.force fixture_csr in
  let x = Array.make (Ewalk_linalg.Csr.dim csr) 1.0 in
  let y = Array.make (Ewalk_linalg.Csr.dim csr) 0.0 in
  fun () -> Ewalk_linalg.Csr.mul_vec_into csr x y

let bench_connected_set () =
  (* density-p2 *)
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed:96 () in
  fun () ->
    ignore (Ewalk_analysis.Subgraph_density.random_connected_set rng g ~s:9)

let bench_ell () =
  (* ell-good *)
  let g = Lazy.force fixture_regular in
  fun () -> ignore (Ewalk_analysis.Goodness.ell_of_vertex g 0 ~max_len:8)

let bench_blue_components () =
  (* blue-invariants, stars-r3 *)
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed:95 () in
  let t = Ewalk.Eprocess.create g rng ~start:0 in
  Ewalk.Cover.run_steps (Ewalk.Eprocess.process t) (Graph.n g);
  let flags = Ewalk.Coverage.visited_edge_flags (Ewalk.Eprocess.coverage t) in
  fun () -> ignore (Ewalk_analysis.Blue.components g ~visited:flags)

let bench_count_cycles () =
  (* cycle-census *)
  let rng = Rng.create ~seed:94 () in
  let g = Ewalk_graph.Gen_regular.random_regular_connected rng 500 4 in
  fun () -> ignore (Ewalk_graph.Girth.count_cycles g ~max_len:6)

let bench_rotor_steps () =
  (* process-compare *)
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed:93 () in
  fun () ->
    let t = Ewalk.Rotor.create g rng ~start:0 in
    Ewalk.Cover.run_steps (Ewalk.Rotor.process t) 10_000

let bench_generator () =
  (* all tables consume this generator *)
  let rng = Rng.create ~seed:92 () in
  fun () -> ignore (Ewalk_graph.Gen_regular.random_regular rng 2_000 4)

let bench_rejection_generator () =
  (* Ablation: exact-uniform pairing rejection vs Steger-Wormald (r = 3,
     where rejection is still viable). *)
  let rng = Rng.create ~seed:90 () in
  fun () -> ignore (Ewalk_graph.Gen_regular.random_regular_rejection rng 2_000 3)

(* Observability overhead ablations against fig1:eprocess-10k-steps: the
   no-op bundle (null sink, no metrics — must stay within 5% of baseline)
   and the metrics-collecting bundle (null sink, live registry). *)
let bench_eprocess_obs_null () =
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed:99 () in
  fun () ->
    let t = Ewalk.Eprocess.create g rng ~start:0 in
    let obs = Ewalk.Observe.create () in
    Ewalk.Observe.attach obs t;
    let p = Ewalk.Observe.instrument obs (Ewalk.Eprocess.process t) in
    Ewalk.Cover.run_steps p 10_000;
    Ewalk.Observe.finish obs p

let bench_eprocess_obs_metrics () =
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed:99 () in
  fun () ->
    let t = Ewalk.Eprocess.create g rng ~start:0 in
    let obs = Ewalk.Observe.create ~metrics:(Ewalk_obs.Metrics.create ()) () in
    Ewalk.Observe.attach obs t;
    let p = Ewalk.Observe.instrument obs (Ewalk.Eprocess.process t) in
    Ewalk.Cover.run_steps p 10_000;
    Ewalk.Observe.finish obs p

(* Lockstep kernel engine: 8 walkers, 1 250 rounds = 10 000 walker-steps,
   so the derived headline divides by the same [headline_steps] and reads
   ns per walker-step. *)
let bench_kernel_steps ~mode proc ~seed () =
  let g = Lazy.force fixture_regular in
  let rng = Rng.create ~seed () in
  fun () ->
    let e = Ewalk.Engine.create_spread ~mode proc g rng ~walkers:8 in
    Ewalk.Engine.run_rounds e 1_250

(* eprocd service kernels: the whole serving stack (router, registry,
   loopback HTTP transport) measured end to end from a real client.  The
   daemon starts lazily on first use, so its serving domain exists only
   once these kernels run — they sit last in the table, keeping the extra
   domain away from the allocation-sensitive kernels above — and an
   at_exit hook tears it down along with its scratch state directory. *)
let serve_daemon =
  lazy
    (let dir = Filename.temp_file "ewalk-bench-serve" ".d" in
     Sys.remove dir;
     match Ewalk_serve.Daemon.start ~state_dir:dir ~resident_cap:256 () with
     | Error e -> failwith ("bench serve daemon: " ^ e)
     | Ok d ->
         at_exit (fun () ->
             ignore (Ewalk_serve.Daemon.stop d : int);
             let rec rm path =
               if Sys.file_exists path then
                 if Sys.is_directory path then begin
                   Array.iter
                     (fun f -> rm (Filename.concat path f))
                     (Sys.readdir path);
                   try Sys.rmdir path with Sys_error _ -> ()
                 end
                 else try Sys.remove path with Sys_error _ -> ()
             in
             rm dir);
         d)

let serve_config_body =
  {|{"family":"regular:4","n":64,"process":"e-process","seed":31}|}

let serve_request ~meth ~path ?body () =
  let port = Ewalk_serve.Daemon.port (Lazy.force serve_daemon) in
  match Ewalk_serve.Client.request ~port ~meth ~path ?body () with
  | Ok { Ewalk_serve.Client.status; body }
    when status >= 200 && status < 300 ->
      body
  | Ok r ->
      failwith
        (Printf.sprintf "bench serve: %s %s -> %d" meth path
           r.Ewalk_serve.Client.status)
  | Error e -> failwith ("bench serve: " ^ e)

let serve_session_id body =
  match Ewalk_obs.Json.of_string body with
  | Ok j -> (
      match
        Option.bind (Ewalk_obs.Json.member "id" j)
          Ewalk_obs.Json.to_string_opt
      with
      | Some id -> id
      | None -> failwith "bench serve: create response carries no id")
  | Error e -> failwith ("bench serve: " ^ e)

(* Session churn over real HTTP: one create + one delete per call.  The
   graph is cached in the registry after the first build, so the measured
   cost is the session machinery (validation, id allocation, walk
   construction, meta write, teardown), not graph generation.  The
   derived headline:serve_session_create_ns rides this kernel. *)
let bench_serve_session_churn () () =
  let id =
    serve_session_id
      (serve_request ~meth:"POST" ~path:"/sessions" ~body:serve_config_body ())
  in
  ignore (serve_request ~meth:"DELETE" ~path:("/sessions/" ^ id) () : string)

(* Stepping throughput through the full service path: one POST advancing
   a persistent session 1 000 steps per call, so the derived
   headline:serve_steps_per_second reads walk steps/s as a client sees
   them — request framing, JSON, registry locking and the native stepping
   loop together. *)
let serve_steps_per_call = 1_000

let bench_serve_steps () =
  let sid =
    lazy
      (serve_session_id
         (serve_request ~meth:"POST" ~path:"/sessions"
            ~body:serve_config_body ()))
  in
  fun () ->
    let id = Lazy.force sid in
    ignore
      (serve_request ~meth:"POST"
         ~path:("/sessions/" ^ id ^ "/step")
         ~body:(Printf.sprintf {|{"steps":%d}|} serve_steps_per_call)
         ()
        : string)

let kernels () =
  [
    ("fig1:eprocess-10k-steps", bench_eprocess_steps ());
    ("srw-lower:srw-10k-steps", bench_srw_steps ());
    ("edge-cover:H8-edge-cover", bench_edge_cover ());
    ("spectral-p1:matvec-10k", bench_matvec ());
    ("density-p2:connected-set", bench_connected_set ());
    ("ell-good:ell-of-vertex", bench_ell ());
    ("blue:components-10k", bench_blue_components ());
    ("cycle-census:count-cycles", bench_count_cycles ());
    ("process-compare:rotor-10k-steps", bench_rotor_steps ());
    ("generator:steger-wormald-2k", bench_generator ());
    ("ablation:generator-rejection-2k", bench_rejection_generator ());
    ("obs:eprocess-10k-steps-nullsink", bench_eprocess_obs_null ());
    ("obs:eprocess-10k-steps-metrics", bench_eprocess_obs_metrics ());
    ( "kernel:euar-w8-10k-steps",
      bench_kernel_steps ~mode:Ewalk.Engine.Cooperating
        Ewalk.Engine.E_uar ~seed:89 () );
    ( "kernel:competing-euar-w8-10k-steps",
      bench_kernel_steps ~mode:Ewalk.Engine.Competing
        Ewalk.Engine.E_uar ~seed:88 () );
    ( "kernel:srw-w8-10k-steps",
      bench_kernel_steps ~mode:Ewalk.Engine.Cooperating
        Ewalk.Engine.Srw ~seed:87 () );
    ("serve:create-delete-session", bench_serve_session_churn ());
    ("serve:step-1k-over-http", bench_serve_steps ());
  ]

(* -- full-scale kernels (EWALK_BENCH_SCALE=full only) ---------------------- *)

(* MemTotal from /proc/meminfo in GiB, 0 when unreadable.  The full-scale
   fixtures hold a 10^7-vertex CSR plus walk state, so the section skips
   (loudly) below 4 GiB rather than thrashing a small runner into swap. *)
let mem_total_gib () =
  match open_in "/proc/meminfo" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line -> (
                match
                  Scanf.sscanf line "MemTotal: %d kB" (fun kb -> kb)
                with
                | kb -> float_of_int kb /. (1024. *. 1024.)
                | exception _ -> scan ())
          in
          scan ())

let full_n = 1_000_000
let full_steps = 2_000_000
let full_cover_n = 10_000_000

(* Benchstat.measure floors at 10 reps — right for microsecond kernels,
   hostile to multi-second full-scale ones.  One warmup plus three timed
   reps keeps the section bounded while still yielding the median/MAD/min
   trio the ledger stores. *)
let measure_full f =
  f ();
  let samples =
    Array.init 3 (fun _ ->
        let t0 = Ewalk_obs.Clock.now_ns () in
        f ();
        float_of_int (Ewalk_obs.Clock.elapsed_ns t0))
  in
  {
    Benchstat.median_ns = Benchstat.median samples;
    mad_ns = Benchstat.mad samples;
    min_ns = Array.fold_left Float.min samples.(0) samples;
    samples = Array.length samples;
  }

(* Walk throughput at paper scale: the native run loops
   (Eprocess.run_steps / Srw.run_steps — no per-step closure dispatch) on
   an n=10^6 4-regular graph, plus a single n=10^7 vertex-cover run as
   the completes-at-scale smoke.  The derived
   headline:steps_per_second_eprocess_full rate rides the same ledger
   record, so bench-diff gates full-scale throughput once a full-scale
   baseline exists. *)
let run_full_scale () =
  let gib = mem_total_gib () in
  if gib < 4.0 then begin
    Printf.printf
      "== full-scale (SKIPPED: %.1f GiB RAM < 4 GiB floor) ==\n\n" gib;
    []
  end
  else begin
    Printf.printf
      "== full-scale throughput (n=%d walk kernels, n=%d cover smoke) ==\n%!"
      full_n full_cover_n;
    let rng = Rng.create ~seed:4242 () in
    let t0 = Ewalk_obs.Clock.now_ns () in
    let g = Ewalk_graph.Gen_regular.random_regular_connected rng full_n 4 in
    Printf.printf "  built n=%d 4-regular stepping fixture in %.1fs\n%!"
      full_n
      (Ewalk_obs.Clock.elapsed_s t0);
    let ep_stats =
      measure_full (fun () ->
          let rng = Rng.create ~seed:41 () in
          let t = Ewalk.Eprocess.create g rng ~start:0 in
          Ewalk.Eprocess.run_steps t full_steps)
    in
    let srw_stats =
      measure_full (fun () ->
          let rng = Rng.create ~seed:40 () in
          let t = Ewalk.Srw.create g rng ~start:0 in
          Ewalk.Srw.run_steps t full_steps)
    in
    let report name (s : Benchstat.stats) =
      let per_step = s.Benchstat.median_ns /. float_of_int full_steps in
      Printf.printf "  %-28s %8.1f ns/step  %8.2fM steps/sec\n%!" name
        per_step (1e3 /. per_step)
    in
    report "e-process (run_steps)" ep_stats;
    report "srw (run_steps)" srw_stats;
    let rngc = Rng.create ~seed:4243 () in
    let t0 = Ewalk_obs.Clock.now_ns () in
    let gc =
      Ewalk_graph.Gen_regular.random_regular_connected rngc full_cover_n 4
    in
    Printf.printf "  built n=%d 4-regular cover fixture in %.1fs\n%!"
      full_cover_n
      (Ewalk_obs.Clock.elapsed_s t0);
    let t = Ewalk.Eprocess.create gc (Rng.create ~seed:39 ()) ~start:0 in
    let t0 = Ewalk_obs.Clock.now_ns () in
    let cover = Ewalk.Eprocess.run_to_vertex_cover t in
    let cover_ns = float_of_int (Ewalk_obs.Clock.elapsed_ns t0) in
    let cover_rows =
      match cover with
      | Some c ->
          Printf.printf
            "  cover n=%d: %d steps in %.2fs (%.2fM steps/sec)\n\n%!"
            full_cover_n c (cover_ns /. 1e9)
            (float_of_int c /. cover_ns *. 1e3);
          [
            ( "fullscale:cover-n1e7",
              {
                Benchstat.median_ns = cover_ns;
                mad_ns = 0.0;
                min_ns = cover_ns;
                samples = 1;
              } );
          ]
      | None ->
          Printf.printf
            "  cover n=%d: ** DID NOT COVER under default cap **\n\n%!"
            full_cover_n;
          []
    in
    [
      ("fullscale:eprocess-2M-steps", ep_stats);
      ("fullscale:srw-2M-steps", srw_stats);
    ]
    @ cover_rows
  end

(* Headline throughput kernels: the 10k-step walk kernels re-expressed
   per step, so the ledger carries ns/step (and the printed line
   steps/sec) and `eproc bench-diff` gates walk throughput directly —
   a stepping-rate regression shows up as `headline:*` REGRESSED even
   when no individual table kernel trips its own tolerance.  Derived
   from the already-measured distributions: every order statistic
   scales. *)
let headline_steps = 10_000.

let headline_kernels kernels =
  let derive ?(steps = headline_steps) headline src =
    match List.assoc_opt src kernels with
    | None -> None
    | Some (s : Benchstat.stats) ->
        Some
          ( headline,
            {
              s with
              Benchstat.median_ns = s.Benchstat.median_ns /. steps;
              mad_ns = s.Benchstat.mad_ns /. steps;
              min_ns = s.Benchstat.min_ns /. steps;
            } )
  in
  (* Rate twins of the headline kernels: the same runs re-expressed as
     steps/second, a higher-is-better series (`eproc bench-diff` inverts
     the regression direction for names containing "per_second", so a
     throughput drop — e.g. the sampler growing a hot-path cost — trips
     the gate from this side too).  Derived, not re-measured; the MAD
     maps through first-order propagation: MAD(c/x) ~ c.MAD(x)/x^2. *)
  let derive_rate ?(steps = headline_steps) headline src =
    match List.assoc_opt src kernels with
    | None -> None
    | Some (s : Benchstat.stats) ->
        let med = s.Benchstat.median_ns in
        if med <= 0.0 then None
        else
          let c = 1e9 *. steps in
          Some
            ( headline,
              {
                s with
                Benchstat.median_ns = c /. med;
                mad_ns = c *. s.Benchstat.mad_ns /. (med *. med);
                min_ns =
                  (if s.Benchstat.min_ns > 0.0 then c /. s.Benchstat.min_ns
                   else 0.0);
              } )
  in
  List.filter_map
    (fun (headline, src) -> derive headline src)
    [
      ("headline:eprocess-ns-per-step", "fig1:eprocess-10k-steps");
      ("headline:eprocess-metrics-ns-per-step", "obs:eprocess-10k-steps-metrics");
      ("headline:srw-ns-per-step", "srw-lower:srw-10k-steps");
      ("headline:kernel_euar_ns_per_walker_step", "kernel:euar-w8-10k-steps");
      ( "headline:kernel_competing_euar_ns_per_walker_step",
        "kernel:competing-euar-w8-10k-steps" );
      ("headline:kernel_srw_ns_per_walker_step", "kernel:srw-w8-10k-steps");
    ]
  @ List.filter_map
      (fun (headline, src) ->
        derive ~steps:(float_of_int full_steps) headline src)
      [
        ("headline:eprocess_full_ns_per_step", "fullscale:eprocess-2M-steps");
        ("headline:srw_full_ns_per_step", "fullscale:srw-2M-steps");
      ]
  @ List.filter_map
      (fun (headline, src) -> derive ~steps:1.0 headline src)
      [
        (* Session-service latency: one create + one delete over loopback
           HTTP per unit, so the ledger reads ns per session churned. *)
        ("headline:serve_session_create_ns", "serve:create-delete-session");
      ]
  @ List.filter_map
      (fun (headline, src) -> derive_rate headline src)
      [
        ("headline:steps_per_second_eprocess", "fig1:eprocess-10k-steps");
        ( "headline:steps_per_second_eprocess_metrics",
          "obs:eprocess-10k-steps-metrics" );
        ("headline:steps_per_second_kernel_euar_w8", "kernel:euar-w8-10k-steps");
      ]
  @ List.filter_map
      (fun (headline, src) ->
        derive_rate ~steps:(float_of_int serve_steps_per_call) headline src)
      [
        (* Service-path stepping throughput, higher-is-better (the
           "per_second" substring flips the bench-diff gate direction). *)
        ("headline:serve_steps_per_second", "serve:step-1k-over-http");
      ]
  @ List.filter_map
      (fun (headline, src) ->
        derive_rate ~steps:(float_of_int full_steps) headline src)
      [
        ( "headline:steps_per_second_eprocess_full",
          "fullscale:eprocess-2M-steps" );
        ("headline:steps_per_second_srw_full", "fullscale:srw-2M-steps");
      ]

let print_headlines headlines =
  List.iter
    (fun (name, (s : Benchstat.stats)) ->
      if Ewalk_obs.Ledger.higher_is_better name then
        Printf.printf "%-36s %12s %21s\n" name ""
          (Printf.sprintf "%.2fM steps/sec" (s.Benchstat.median_ns /. 1e6))
      else
        Printf.printf "%-36s %12s %21s\n" name
          (Printf.sprintf "%.1f ns/step" s.Benchstat.median_ns)
          (Printf.sprintf "%.2fM steps/sec" (1e3 /. s.Benchstat.median_ns)))
    headlines;
  if headlines <> [] then print_newline ()

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let run_micro_benchmarks () =
  print_endline
    "== micro-benchmarks (one kernel per experiment table; median of >=10 \
     reps) ==";
  Printf.printf "%-36s %12s %10s %12s %6s\n" "kernel" "median/run" "mad"
    "min/run" "reps";
  let rows =
    List.map
      (fun (name, f) ->
        let s = Prof.span_ambient ("kernel:" ^ name) (fun () ->
            Benchstat.measure f)
        in
        Printf.printf "%-36s %12s %10s %12s %6d\n%!" name
          (pretty_ns s.Benchstat.median_ns)
          (pretty_ns s.Benchstat.mad_ns)
          (pretty_ns s.Benchstat.min_ns)
          s.Benchstat.samples;
        (name, s))
      (kernels ())
  in
  print_newline ();
  rows

(* Paired overhead: the null-sink observability path is contractually free.
   Both sides interleave rep by rep, so the reported percentage is a median
   of paired ratios with a noise floor — never negative, and loud when the
   5% budget is exceeded. *)
let obs_overhead_paired () =
  let base = bench_eprocess_steps () in
  let null_oh =
    Benchstat.paired_overhead ~base ~instrumented:(bench_eprocess_obs_null ())
      ()
  in
  let metrics_oh =
    Benchstat.paired_overhead ~base
      ~instrumented:(bench_eprocess_obs_metrics ()) ()
  in
  (* Both observability bundles are budgeted at <= 5% on the noise-floored
     estimate: the null-sink bundle (contractually ~free) and the
     metrics-collecting one, which drains counters in batches. *)
  let null_ok =
    null_oh.Benchstat.raw_percent >= -2.0 && null_oh.Benchstat.percent <= 5.0
  in
  let metrics_ok = metrics_oh.Benchstat.percent <= 5.0 in
  let self_check_ok = null_ok && metrics_ok in
  Printf.printf
    "obs overhead (null sink): %.1f%% (raw %+.1f%%, noise %.1f%%, %d pairs) \
     %s\n"
    null_oh.Benchstat.percent null_oh.Benchstat.raw_percent
    null_oh.Benchstat.noise_percent null_oh.Benchstat.pairs
    (if not null_ok then "** OUTSIDE [-2%,+5%] BUDGET **"
     else "(within budget)");
  Printf.printf
    "obs overhead (metrics, null sink): %.1f%% (raw %+.1f%%, noise %.1f%%, \
     %d pairs) %s\n\n"
    metrics_oh.Benchstat.percent metrics_oh.Benchstat.raw_percent
    metrics_oh.Benchstat.noise_percent metrics_oh.Benchstat.pairs
    (if not metrics_ok then "** OUTSIDE 5% BUDGET **" else "(within budget)");
  (null_oh, metrics_oh, self_check_ok)

(* -- experiment tables ----------------------------------------------------- *)

let run_experiments ~pool () =
  let scale = Ewalk_expt.Sweep.scale_of_env () in
  Printf.printf
    "== experiment tables (scale: %s, jobs: %d; set \
     EWALK_BENCH_SCALE=tiny/default/full) ==\n\n"
    (Ewalk_expt.Sweep.scale_name scale)
    (Ewalk_par.Pool.jobs pool);
  List.map
    (fun e ->
      let table, seconds =
        Ewalk_expt.Experiments.run_timed ~pool e ~scale ~seed:1
      in
      Ewalk_expt.Table.print table;
      Printf.printf "  [%s reproduces: %s; %.1fs]\n\n%!"
        e.Ewalk_expt.Experiments.id e.Ewalk_expt.Experiments.paper_item seconds;
      (e.Ewalk_expt.Experiments.id, seconds))
    Ewalk_expt.Experiments.all

(* -- parallel speedup ------------------------------------------------------- *)

type parallel_result = {
  par_s1 : float;
  par_s4 : float;
  par_speedup : float;
  par_bit_identical : bool;
  par_lanes : Ewalk_par.Pool.lane_report array; (* jobs=4 run *)
  par_utilization : string; (* one-line summary, also printed *)
}

(* Wall-clock jobs=1 vs jobs=4 on a fixed trial workload, with the
   per-trial bit-identity check that backs the deterministic-sharding
   contract.  The speedup only shows on multicore hardware, but the
   identity check is meaningful everywhere; the jobs=4 lane telemetry
   (busy/wait/chunks per domain) explains poor speedups in-band. *)
let run_parallel_speedup ~scale =
  let n =
    match scale with
    | Ewalk_expt.Sweep.Tiny -> 8_000
    | Ewalk_expt.Sweep.Default -> 20_000
    | Ewalk_expt.Sweep.Full -> 50_000
  in
  let trials = 16 in
  let trial rng =
    let g = Ewalk_graph.Gen_regular.random_regular_connected rng n 4 in
    match
      Ewalk.Cover.run_until_vertex_cover
        ~cap:(Ewalk.Cover.default_cap g)
        (Ewalk.Eprocess.process (Ewalk.Eprocess.create g rng ~start:0))
    with
    | Some t -> float_of_int t
    | None -> Float.nan
  in
  let timed jobs =
    Ewalk_par.Pool.with_pool ~jobs @@ fun pool ->
    let rngs = Ewalk_expt.Sweep.trial_rngs ~seed:1 ~trials in
    let t0 = Ewalk_obs.Clock.now_ns () in
    let r = Ewalk_expt.Sweep.map_trials ~pool trial rngs in
    let dt = Ewalk_obs.Clock.elapsed_s t0 in
    (dt, r, Ewalk_par.Pool.stats pool, Ewalk_par.Pool.utilization_line pool ~wall_s:dt)
  in
  let s1, r1, _, _ = timed 1 in
  let s4, r4, lanes, utilization = timed 4 in
  let bit_identical = r1 = r4 in
  let speedup = s1 /. s4 in
  Printf.printf
    "== parallel speedup (vertex-cover trials, n=%d, %d trials) ==\n\
     jobs=1: %.2fs  jobs=4: %.2fs  speedup: %.2fx  bit-identical: %b\n\
     %s\n\n"
    n trials s1 s4 speedup bit_identical utilization;
  {
    par_s1 = s1;
    par_s4 = s4;
    par_speedup = speedup;
    par_bit_identical = bit_identical;
    par_lanes = lanes;
    par_utilization = utilization;
  }

(* -- machine-readable outputs ----------------------------------------------- *)

let kernel_stats_json (s : Benchstat.stats) =
  let module J = Ewalk_obs.Json in
  J.Obj
    [
      ("median_ns", J.Float s.Benchstat.median_ns);
      ("mad_ns", J.Float s.Benchstat.mad_ns);
      ("min_ns", J.Float s.Benchstat.min_ns);
      ("samples", J.Int s.Benchstat.samples);
    ]

let overhead_json (oh : Benchstat.overhead) =
  let module J = Ewalk_obs.Json in
  J.Obj
    [
      ("percent", J.Float oh.Benchstat.percent);
      ("raw_percent", J.Float oh.Benchstat.raw_percent);
      ("noise_percent", J.Float oh.Benchstat.noise_percent);
      ("pairs", J.Int oh.Benchstat.pairs);
    ]

(* BENCH_core.json (or $EWALK_BENCH_JSON): one snapshot per bench run,
   schema ewalk-bench/2 — kernel entries carry {median_ns, mad_ns, min_ns,
   samples} distributions rather than a single OLS point estimate. *)
let write_bench_json ~scale ~jobs ~kernels ~overhead ~experiments ~parallel =
  let path =
    match Sys.getenv_opt "EWALK_BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_core.json"
  in
  let module J = Ewalk_obs.Json in
  let json =
    J.Obj
      [
        ("schema", J.String "ewalk-bench/2");
        ("scale", J.String (Ewalk_expt.Sweep.scale_name scale));
        ("jobs", J.Int jobs);
        ("git_rev", J.String (Ledger.git_rev ()));
        ( "kernels",
          J.Obj
            (List.map (fun (name, s) -> (name, kernel_stats_json s)) kernels) );
        ( "obs_overhead_null_sink_percent",
          match overhead with
          | None -> J.Null
          | Some (null_oh, _, _) -> J.Float null_oh.Benchstat.percent );
        ( "obs_overhead_null_sink",
          match overhead with
          | None -> J.Null
          | Some (null_oh, _, _) -> overhead_json null_oh );
        ( "obs_overhead_metrics",
          match overhead with
          | None -> J.Null
          | Some (_, metrics_oh, _) -> overhead_json metrics_oh );
        ( "obs_overhead_self_check_ok",
          match overhead with
          | None -> J.Null
          | Some (_, _, ok) -> J.Bool ok );
        ( "experiments_seconds",
          J.Obj (List.map (fun (id, s) -> (id, J.Float s)) experiments) );
        ( "parallel",
          match parallel with
          | None -> J.Null
          | Some p ->
              J.Obj
                [
                  ("seconds_jobs1", J.Float p.par_s1);
                  ("seconds_jobs4", J.Float p.par_s4);
                  ("speedup", J.Float p.par_speedup);
                  ("bit_identical", J.Bool p.par_bit_identical);
                  ( "jobs4_lanes",
                    J.List
                      (Array.to_list
                         (Array.mapi
                            (fun i (l : Ewalk_par.Pool.lane_report) ->
                              J.Obj
                                [
                                  ("lane", J.Int i);
                                  ("busy_s", J.Float l.Ewalk_par.Pool.busy_s);
                                  ("wait_s", J.Float l.Ewalk_par.Pool.wait_s);
                                  ( "chunks",
                                    J.Int l.Ewalk_par.Pool.chunks_served );
                                  ("tasks", J.Int l.Ewalk_par.Pool.tasks_served);
                                ])
                            p.par_lanes)) );
                  ("utilization", J.String p.par_utilization);
                ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      J.to_channel oc json;
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* One append-only ledger record per run (skipped when micro-benches were,
   since kernel medians are the record's payload). *)
let append_ledger ~scale ~jobs ~kernels =
  let path =
    match Sys.getenv_opt "EWALK_BENCH_HISTORY" with
    | Some p -> p
    | None -> "BENCH_history.jsonl"
  in
  let record =
    Ledger.make
      ~scale:(Ewalk_expt.Sweep.scale_name scale)
      ~jobs
      ~kernels:
        (List.map
           (fun (name, (s : Benchstat.stats)) ->
             ( name,
               {
                 Ledger.k_median_ns = s.Benchstat.median_ns;
                 k_mad_ns = s.Benchstat.mad_ns;
                 k_min_ns = s.Benchstat.min_ns;
                 k_samples = s.Benchstat.samples;
               } ))
           kernels)
      ()
  in
  Ledger.append ~path record;
  Printf.printf "appended ledger record (%s, %s) to %s\n" record.Ledger.git_rev
    record.Ledger.scale path

(* "--jobs N" (or "--jobs=N"); default: EWALK_JOBS, else the machine's
   recommended domain count minus one (Pool.default_jobs). *)
let jobs_of_argv () =
  let rec scan = function
    | "--jobs" :: v :: _ -> Some (int_of_string v)
    | a :: _ when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        Some (int_of_string (String.sub a 7 (String.length a - 7)))
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let () =
  (* The bench run mints its own run id so ledger records (and the
     BENCH_history rows derived from them) join the provenance store. *)
  ignore
    (Ewalk_obs.Runlog.begin_run
       ~config:
         ("bench "
         ^ String.concat " " (List.tl (Array.to_list Sys.argv)))
       ()
      : Ewalk_obs.Runlog.t);
  let skip name = Sys.getenv_opt name = Some "1" in
  let skip_micro = skip "EWALK_BENCH_SKIP_MICRO" in
  let skip_experiments = skip "EWALK_BENCH_SKIP_EXPERIMENTS" in
  let skip_parallel = skip "EWALK_BENCH_SKIP_PARALLEL" in
  let jobs = jobs_of_argv () in
  let scale = Ewalk_expt.Sweep.scale_of_env () in
  let prof = Prof.enable_ambient () in
  (* Micro-benches run before the pool exists: idle worker domains would
     drag every minor collection into a multi-domain stop-the-world and
     distort the allocation-heavy kernels (the obs overhead ones most). *)
  let kernels =
    if skip_micro then []
    else begin
      let rows = Prof.span_ambient "bench:micro" run_micro_benchmarks in
      (* Full-scale stepping kernels and the n=10^7 cover smoke join the
         row list only at EWALK_BENCH_SCALE=full (and >= 4 GiB RAM), so
         the tiny/default gate environments never pay for them. *)
      let full_rows =
        if scale = Ewalk_expt.Sweep.Full && not (skip "EWALK_BENCH_SKIP_FULL")
        then Prof.span_ambient "bench:full-scale" run_full_scale
        else []
      in
      (* Derived headline throughput entries ride the same ledger record,
         so bench-diff gates steps/sec alongside the raw kernels. *)
      let headlines = headline_kernels (rows @ full_rows) in
      print_headlines headlines;
      rows @ full_rows @ headlines
    end
  in
  let overhead =
    if skip_micro then None
    else Some (Prof.span_ambient "bench:obs-overhead" obs_overhead_paired)
  in
  let experiments, parallel =
    Ewalk_par.Pool.with_pool ?jobs @@ fun pool ->
    let experiments =
      if skip_experiments then []
      else
        Prof.span_ambient "bench:experiments" (fun () ->
            run_experiments ~pool ())
    in
    let parallel =
      if skip_parallel then None
      else
        Some
          (Prof.span_ambient "bench:parallel" (fun () ->
               run_parallel_speedup ~scale))
    in
    (experiments, parallel)
  in
  write_bench_json ~scale
    ~jobs:(match jobs with Some j -> j | None -> Ewalk_par.Pool.default_jobs ())
    ~kernels ~overhead ~experiments ~parallel;
  if not skip_micro then
    append_ledger ~scale
      ~jobs:
        (match jobs with Some j -> j | None -> Ewalk_par.Pool.default_jobs ())
      ~kernels;
  print_endline "== profile (self/total seconds per span) ==";
  Prof.report prof
