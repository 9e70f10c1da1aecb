(* eproc: command-line driver for the E-process reproduction.

   Subcommands:
     list                      - list experiments
     experiment ID             - run one experiment (or "all")
     graph-info                - structural report of a generated graph
     cover                     - cover-time trials for one process
     trace                     - run one walk, emitting a JSONL event stream
                                 (optionally checkpointed / resumed from a snapshot)
     verify-trace              - replay a JSONL stream against the walk invariants
     check-oracle              - differential-test production walks vs naive oracles
     checkpoint-inspect        - describe a snapshot file or campaign directory
     spectra                   - spectral report of a generated graph
     bench-diff                - regression gate over two bench ledger records *)

open Cmdliner
module Graph = Ewalk_graph.Graph
module Rng = Ewalk_prng.Rng
module Expt = Ewalk_expt
module Obs = Ewalk_obs
module Observe = Ewalk.Observe
module Engine = Ewalk.Engine
module Snapshot = Ewalk_resume.Snapshot

let walkers_arg =
  let doc =
    "Advance $(docv) walkers in lockstep on the walk engine (W > 1 spreads \
     the starts from the seed; W=1 starts at vertex 0).  Supported by the \
     engine's processes (e-process rules, srw, lazy-srw, rotor)."
  in
  Arg.(value & opt int 1 & info [ "walkers" ] ~docv:"W" ~doc)

let seed_arg =
  let doc = "Random seed (all runs are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let parse = function
    | "tiny" -> Ok Expt.Sweep.Tiny
    | "default" -> Ok Expt.Sweep.Default
    | "full" -> Ok Expt.Sweep.Full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Expt.Sweep.scale_name s) in
  let scale_conv = Arg.conv (parse, print) in
  let doc = "Experiment scale: tiny, default, or full (paper-size sweeps)." in
  Arg.(
    value & opt scale_conv Expt.Sweep.Default
    & info [ "scale" ] ~docv:"SCALE" ~doc)

let family_arg =
  let doc =
    "Graph family spec, e.g. regular:4, torus, hypercube, margulis, \
     cycle-union:2, gnp:0.001, geometric:0.05."
  in
  Arg.(value & opt string "regular:4" & info [ "family" ] ~docv:"SPEC" ~doc)

let n_arg =
  let doc = "Nominal number of vertices." in
  Arg.(value & opt int 10_000 & info [ "n"; "size" ] ~docv:"N" ~doc)

let trials_arg =
  let doc = "Trials to average over." in
  Arg.(value & opt int 5 & info [ "trials" ] ~docv:"T" ~doc)

let csv_arg =
  let doc = "Also write the result table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write a JSON metrics snapshot of the run to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Domains for trial sweeps (default: $(b,EWALK_JOBS), else the machine's \
     recommended domain count minus one).  $(docv)=1 forces the sequential \
     path; results are bit-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let export_metrics_arg =
  let doc =
    "Also write the run's telemetry as OpenMetrics (Prometheus text \
     exposition) to $(docv).  When $(b,--profile) is active the profiler \
     span tree is exported too."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "export-metrics" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Enable the ambient span profiler and print the merged call tree \
     (total/self seconds, calls) to stderr when the run finishes."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* --profile: switch the ambient profiler on for the run, report at exit.
   Returns the profiler (for --export-metrics) when enabled. *)
let with_profile enabled f =
  if not enabled then f None
  else begin
    let prof = Obs.Prof.enable_ambient () in
    Fun.protect
      ~finally:(fun () ->
        prerr_endline "== profile (self/total seconds per span) ==";
        Obs.Prof.report ~out:stderr prof)
      (fun () -> f (Some prof))
  end

let write_metrics path metrics =
  Obs.Metrics.write_file metrics path;
  Obs.Runlog.note_artifact ~key:"metrics" ~path;
  Printf.printf "wrote %s\n" path

let write_openmetrics ?prof path metrics =
  Obs.Export.write_file ?prof metrics path;
  Obs.Runlog.note_artifact ~key:"openmetrics" ~path;
  Printf.printf "wrote %s (OpenMetrics)\n" path

(* When EWALK_RUNS_DIR is armed, point the throughput sampler's spill at
   runs/<id>/throughput.jsonl.  Called once after [Runlog.begin_run] and
   again after every [adopt_parent] (adoption re-derives the id, and a
   resumed leg's series belongs under the new id; no samples exist yet at
   adoption time because the walk has not started). *)
let arm_run_outputs () =
  match (Obs.Runlog.current (), Sys.getenv_opt "EWALK_RUNS_DIR") with
  | Some r, Some root when root <> "" ->
      let path =
        Filename.concat (Filename.concat root r.Obs.Runlog.run_id)
          "throughput.jsonl"
      in
      Obs.Throughput.set_output path;
      Obs.Runlog.note_artifact ~key:"throughput" ~path
  | _ -> ()

(* Resumed legs re-derive their run id with the parent folded in; every
   artifact stamped after this point carries the child id. *)
let adopt_parent_run parent =
  ignore (Obs.Runlog.adopt_parent parent : Obs.Runlog.t);
  arm_run_outputs ()

(* The one-line busy/utilization summary a jobs>1 run ends with, so a poor
   speedup arrives with its per-lane explanation attached. *)
let print_utilization pool ~wall_s =
  if Ewalk_par.Pool.jobs pool > 1 then
    print_endline (Ewalk_par.Pool.utilization_line pool ~wall_s)

(* -- --listen: live observability endpoint -------------------------------- *)

let listen_arg =
  let doc =
    "Serve live observability over loopback HTTP on $(docv) while the run \
     is in flight: $(b,/metrics) (OpenMetrics text), $(b,/progress) (JSON: \
     steps/sec, coverage fractions, lane utilization, ETA), $(b,/healthz), \
     $(b,/quit).  $(docv)=0 picks an ephemeral port; the bound port is \
     printed on stderr as `listening on ...'."
  in
  Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT" ~doc)

(* The /progress JSON: whatever the registry can currently say (sharded
   counters drain into it at most one drain interval behind the walk),
   plus wall clock and per-lane pool utilization.  Fields the run has not
   populated yet are null rather than absent, so pollers see a stable
   schema. *)
let progress_body ?pool ~t0 registry () =
  let elapsed = Obs.Clock.elapsed_s t0 in
  let views = Obs.Metrics.instruments registry in
  let counter name =
    match List.assoc_opt name views with
    | Some (Obs.Metrics.Counter_view k) -> Some k
    | _ -> None
  in
  let gauge name =
    match List.assoc_opt name views with
    | Some (Obs.Metrics.Gauge_view v) -> Some v
    | _ -> None
  in
  let opt f = function Some v -> f v | None -> Obs.Json.Null in
  let steps = counter "steps" in
  let steps_per_second_lifetime =
    match steps with
    | Some s when elapsed > 0.0 -> Some (float_of_int s /. elapsed)
    | _ -> None
  in
  (* The headline rate is the windowed recent rate from the throughput
     sampler (what the run is doing right now); the lifetime average stays as
     a second field.  Before the sampler has two samples the window is
     empty, so fall back to the lifetime value rather than going null. *)
  let steps_per_second =
    match Obs.Throughput.windowed_rate () with
    | Some r -> Some r
    | None -> steps_per_second_lifetime
  in
  let vfrac = gauge "coverage_vertex_fraction" in
  let efrac = gauge "coverage_edge_fraction" in
  (* Crude but honest: extrapolate the remaining vertex coverage at the
     average rate so far.  Null until the first drain publishes a
     fraction. *)
  let eta_s =
    match vfrac with
    | Some c when c >= 1.0 -> Some 0.0
    | Some c when c > 0.0 -> Some (elapsed *. ((1.0 -. c) /. c))
    | _ -> None
  in
  let lane_fields =
    match pool with
    | None -> []
    | Some pool ->
        let stats = Ewalk_par.Pool.stats pool in
        let jobs = Ewalk_par.Pool.jobs pool in
        let busy =
          Array.fold_left (fun a l -> a +. l.Ewalk_par.Pool.busy_s) 0.0 stats
        in
        [
          ("jobs", Obs.Json.Int jobs);
          ( "lane_busy_s",
            Obs.Json.List
              (Array.to_list stats
              |> List.map (fun l -> Obs.Json.Float l.Ewalk_par.Pool.busy_s)) );
          ( "utilization",
            if elapsed > 0.0 then
              Obs.Json.Float (busy /. (float_of_int jobs *. elapsed))
            else Obs.Json.Null );
        ]
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       ([
          ("elapsed_s", Obs.Json.Float elapsed);
          ( "run_id",
            opt (fun id -> Obs.Json.String id) (Obs.Runlog.run_id ()) );
          ("steps", opt (fun s -> Obs.Json.Int s) steps);
          ( "steps_per_second",
            opt (fun v -> Obs.Json.Float v) steps_per_second );
          ( "steps_per_second_lifetime",
            opt (fun v -> Obs.Json.Float v) steps_per_second_lifetime );
          ("coverage_vertex_fraction", opt (fun v -> Obs.Json.Float v) vfrac);
          ("coverage_edge_fraction", opt (fun v -> Obs.Json.Float v) efrac);
          ("eta_s", opt (fun v -> Obs.Json.Float v) eta_s);
        ]
       @ lane_fields))
  ^ "\n"

(* Run [f] with the live endpoint up (when --listen was given), stopping
   it afterwards even on exceptions.  The `listening on' line goes to
   stderr so scripts (make serve-smoke) can scrape the ephemeral port
   without disturbing the command's stdout. *)
let with_listen ?pool ~t0 listen registry f =
  match listen with
  | None -> f ()
  | Some port -> (
      match
        Obs.Serve.start ~port
          ~metrics:(fun () -> Obs.Export.render registry)
          ~progress:(progress_body ?pool ~t0 registry)
          ()
      with
      | Error e ->
          Printf.eprintf "eproc: --listen %d: %s\n%!" port e;
          exit 2
      | Ok srv ->
          Printf.eprintf
            "eproc: listening on http://127.0.0.1:%d (/metrics /progress \
             /healthz /quit)\n\
             %!"
            (Obs.Serve.port srv);
          Fun.protect ~finally:(fun () -> Obs.Serve.stop srv) f)

(* -- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-20s %s\n" e.Expt.Experiments.id
          e.Expt.Experiments.paper_item)
      Expt.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper experiments.")
    Term.(const run $ const ())

(* -- experiment ----------------------------------------------------------- *)

(* [Fun.protect] so an I/O error cannot leak the channel. *)
let write_string_to_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s);
  Printf.printf "wrote %s\n" path

let write_csv path table = write_string_to_file path (Expt.Table.to_csv table)

let checkpoint_dir_arg =
  let doc =
    "Checkpoint the trial sweep into directory $(docv): every completed \
     trial is journaled, so a killed run restarted with $(b,--resume) \
     re-runs only the unfinished trials and produces a bit-identical table."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Resume the campaign in $(b,--checkpoint-dir): replay journaled trials \
     and execute the rest.  The directory's manifest must match this \
     invocation's experiment, scale and seed ($(b,--jobs) may differ)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let task_retries_arg =
  let doc =
    "Retry a trial that raises (or times out) up to $(docv) more times \
     before failing the sweep; retries are recorded in the pool's lane \
     telemetry.  Trials consume a copy of their generator, so a retried \
     trial is bit-identical to an undisturbed one."
  in
  Arg.(value & opt int 2 & info [ "task-retries" ] ~docv:"N" ~doc)

let task_timeout_arg =
  let doc =
    "Treat a single trial running longer than $(docv) seconds as failed \
     (checked when the trial finishes; subject to $(b,--task-retries))."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "task-timeout" ] ~docv:"SECONDS" ~doc)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id (see $(b,list)), or $(b,all)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let exp_walkers_arg =
    let doc =
      "Pin the multi-walker experiments (team-speedup, kernel-modes) to \
       $(docv) walkers; experiments without a walker dimension ignore it."
    in
    Arg.(value & opt (some int) None & info [ "walkers" ] ~docv:"W" ~doc)
  in
  let run id scale seed walkers csv metrics export_metrics profile jobs
      checkpoint_dir resume task_retries task_timeout listen =
    with_profile profile @@ fun prof ->
    Ewalk_par.Pool.with_pool ~retries:task_retries ?task_timeout_s:task_timeout
      ?jobs
    @@ fun pool ->
    (match (resume, checkpoint_dir) with
    | true, None ->
        Printf.eprintf "eproc experiment: --resume requires --checkpoint-dir\n";
        exit 2
    | _ -> ());
    let campaign =
      match checkpoint_dir with
      | None -> None
      | Some dir -> (
          (* A resumed leg is a child run of the campaign's creating run:
             adopt the manifest's run id before opening, so the reopened
             manifest and every journal row this leg appends carry the
             child id (with parent_run_id pointing at the ancestor). *)
          (if resume then
             match Ewalk_resume.Campaign.provenance ~dir with
             | Ok r -> adopt_parent_run r.Obs.Runlog.run_id
             | Error _ -> ());
          let manifest =
            [
              ("experiment", Obs.Json.String id);
              ("scale", Obs.Json.String (Expt.Sweep.scale_name scale));
              ("seed", Obs.Json.Int seed);
            ]
          in
          match Ewalk_resume.Campaign.open_ ~dir ~manifest ~resume with
          | Ok c ->
              Obs.Runlog.note_artifact ~key:"campaign" ~path:dir;
              Ewalk_resume.Campaign.set_ambient (Some c);
              Some c
          | Error e ->
              Printf.eprintf "eproc experiment: %s\n" e;
              exit 2)
    in
    Fun.protect ~finally:(fun () ->
        Ewalk_resume.Campaign.set_ambient None;
        Option.iter Ewalk_resume.Campaign.close campaign)
    @@ fun () ->
    let t0 = Obs.Clock.now_ns () in
    let registry = Obs.Metrics.create () in
    Obs.Metrics.set
      (Obs.Metrics.gauge registry "seed")
      (float_of_int seed);
    Obs.Metrics.set
      (Obs.Metrics.gauge registry "jobs")
      (float_of_int (Ewalk_par.Pool.jobs pool));
    let run_one e =
      (match (walkers, e.Expt.Experiments.run_walkers) with
      | Some _, None ->
          Printf.eprintf "eproc experiment: %s has no walker dimension; \
                          ignoring --walkers\n"
            e.Expt.Experiments.id
      | _ -> ());
      let table, seconds =
        Expt.Experiments.run_timed ~pool ?walkers e ~scale ~seed
      in
      Expt.Experiments.record_run registry e ~table ~seconds;
      Expt.Table.print table;
      match csv with
      | Some path ->
          let file =
            if id = "all" then
              Filename.remove_extension path ^ "-" ^ table.Expt.Table.id ^ ".csv"
            else path
          in
          write_csv file table
      | None -> ()
    in
    let finish () =
      print_utilization pool ~wall_s:(Obs.Clock.elapsed_s t0);
      (match campaign with
      | None -> ()
      | Some c ->
          let completed = Ewalk_resume.Campaign.completed c in
          let cached = Ewalk_resume.Campaign.cached c in
          let executed = Ewalk_resume.Campaign.executed c in
          Obs.Metrics.set
            (Obs.Metrics.gauge registry "campaign_trials_completed")
            (float_of_int completed);
          Obs.Metrics.set
            (Obs.Metrics.gauge registry "campaign_trials_replayed")
            (float_of_int cached);
          Obs.Metrics.set
            (Obs.Metrics.gauge registry "campaign_trials_executed")
            (float_of_int executed);
          Printf.printf
            "checkpoint: %d trials journaled in %s (%d replayed, %d executed \
             this run)\n"
            completed
            (Ewalk_resume.Campaign.dir c)
            cached executed);
      Option.iter (fun p -> write_metrics p registry) metrics;
      Option.iter (fun p -> write_openmetrics ?prof p registry) export_metrics
    in
    with_listen ~pool ~t0 listen registry @@ fun () ->
    if id = "all" then begin
      List.iter run_one Expt.Experiments.all;
      finish ();
      `Ok ()
    end
    else begin
      match Expt.Experiments.find id with
      | Some e ->
          run_one e;
          finish ();
          `Ok ()
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %S; try `eproc list'" id )
    end
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run a paper experiment and print its table.")
    Term.(
      ret
        (const run $ id_arg $ scale_arg $ seed_arg $ exp_walkers_arg $ csv_arg
       $ metrics_arg $ export_metrics_arg $ profile_arg $ jobs_arg
       $ checkpoint_dir_arg $ resume_arg $ task_retries_arg $ task_timeout_arg
       $ listen_arg))

(* -- graph-info ----------------------------------------------------------- *)

let graph_info_cmd =
  let run family n seed =
    let rng = Rng.create ~seed () in
    let g = Expt.Families.build family rng ~n in
    Format.printf "%a@." Graph.pp g;
    Printf.printf "connected:       %b\n" (Ewalk_graph.Traversal.is_connected g);
    Printf.printf "simple:          %b\n" (Graph.is_simple g);
    Printf.printf "all-degrees-even:%b\n" (Graph.all_degrees_even g);
    Printf.printf "self-loops:      %d\n" (Graph.count_self_loops g);
    (match Ewalk_graph.Girth.girth_at_most g 24 with
    | Some girth -> Printf.printf "girth:           %d\n" girth
    | None -> Printf.printf "girth:           > 24\n");
    Printf.printf "diameter (>=):   %d\n"
      (Ewalk_graph.Traversal.diameter_lower_bound g);
    if Graph.n g <= 20_000 && Graph.m g > 0 then begin
      let lmax =
        if Graph.n g <= 256 then
          (Ewalk_spectral.Spectral.gap_exact g).Ewalk_spectral.Spectral.lambda_max
        else
          Ewalk_spectral.Spectral.lambda_max_power ~tol:1e-8 ~max_iter:4_000 g
      in
      Printf.printf "lambda_max:      %.5f (gap %.5f)\n" lmax (1.0 -. lmax)
    end
  in
  Cmd.v
    (Cmd.info "graph-info" ~doc:"Generate a graph and print a structural report.")
    Term.(const run $ family_arg $ n_arg $ seed_arg)

(* -- cover ---------------------------------------------------------------- *)

let process_arg =
  let doc =
    "Walk process: e-process, e-process:lowest, e-process:highest, srw, \
     lazy-srw, v-process, rotor, rwc:D, luf, oldest, metropolis."
  in
  Arg.(value & opt string "e-process" & info [ "process" ] ~docv:"P" ~doc)

(* The engine's processes (Engine.proc_of_spec) as a generic process plus
   the native-hook attacher; the others get only the generic
   [Observe.instrument] wrapper. *)
let engine_process e = (Engine.process e, fun obs -> Observe.attach obs e)

let generic_process spec g rng =
  let start = 0 in
  match String.split_on_char ':' spec with
  | [ "v-process" ] -> Ewalk.Vprocess.process (Ewalk.Vprocess.create g rng ~start)
  | [ "rwc"; d ] ->
      Ewalk.Rwc.process (Ewalk.Rwc.create ~d:(int_of_string d) g rng ~start)
  | [ "luf" ] ->
      Ewalk.Fair.process
        (Ewalk.Fair.create ~random_ties:true
           ~strategy:Ewalk.Fair.Least_used_first g rng ~start)
  | [ "oldest" ] ->
      Ewalk.Fair.process
        (Ewalk.Fair.create ~random_ties:true ~strategy:Ewalk.Fair.Oldest_first g
           rng ~start)
  | [ "metropolis" ] ->
      Ewalk.Metropolis.process (Ewalk.Metropolis.create g rng ~start)
  | _ -> invalid_arg (Printf.sprintf "unknown process %S" spec)

let unsupported_walkers ~cmd spec =
  Printf.eprintf "eproc %s: process %S does not support --walkers\n" cmd spec;
  exit 2

let require_engine_proc ~cmd spec =
  match Engine.proc_of_spec spec with
  | Some p -> p
  | None -> unsupported_walkers ~cmd spec

(* Build the walk a --process spec names.  An engine process (the
   snapshottable ones, which `trace --checkpoint` can write) comes back
   with its cooperating engine ({!Engine.build}).  Other specs are
   single-walker generic processes. *)
let make_process ~cmd ~walkers spec g rng =
  match Engine.proc_of_spec spec with
  | Some p ->
      let e = Engine.build p g rng ~walkers in
      (Some e, engine_process e)
  | None when walkers > 1 -> unsupported_walkers ~cmd spec
  | None -> (None, (generic_process spec g rng, fun (_ : Observe.t) -> ()))

let cover_cmd =
  let edges_arg =
    let doc = "Measure edge cover time instead of vertex cover time." in
    Arg.(value & flag & info [ "edges" ] ~doc)
  in
  let compete_arg =
    let doc =
      "Competing engine mode: every walker keeps private visited sets and \
       the measured time is the first walker's own vertex cover step \
       (combine with $(b,--walkers))."
    in
    Arg.(value & flag & info [ "compete" ] ~doc)
  in
  let run family process n trials seed walkers compete edges metrics
      export_metrics profile jobs listen =
    if walkers < 1 then begin
      Printf.eprintf "eproc cover: --walkers must be at least 1\n";
      exit 2
    end;
    if compete && edges then begin
      Printf.eprintf
        "eproc cover: --compete measures per-walker vertex cover; --edges is \
         not supported\n";
      exit 2
    end;
    with_profile profile @@ fun prof ->
    Ewalk_par.Pool.with_pool ?jobs @@ fun pool ->
    let t0 = Obs.Clock.now_ns () in
    let root = Rng.create ~seed () in
    let rngs = Rng.split_n root trials in
    (* One registry across the trials: counters accumulate (exactly, even
       when trials shard across domains), gauges keep the highest trial
       index's values ([Observe.for_trial]).  --listen forces a registry
       so the endpoint has something to serve. *)
    let registry =
      if metrics <> None || export_metrics <> None || listen <> None then
        Some (Obs.Metrics.create ())
      else None
    in
    let obs = Option.map (fun m -> Observe.create ~metrics:m ()) registry in
    let run_trials () =
      Ewalk_par.Pool.map_array ~chunk:1 pool
        (fun (trial, rng) ->
          let g = Expt.Families.build family rng ~n in
          (* Each trial observes through its own view: per-trial drain
             state, and deterministic last-trial-wins gauges under any
             --jobs. *)
          let obs = Option.map (fun o -> Observe.for_trial o ~trial) obs in
          let cap = Ewalk.Cover.default_cap g in
          let t =
            if compete then begin
              let kp = require_engine_proc ~cmd:"cover" process in
              let eng =
                Engine.build ~mode:Engine.Competing kp g rng ~walkers
              in
              Option.iter (fun obs -> Observe.attach obs eng) obs;
              let r =
                Option.map snd (Engine.run_until_first_cover ~cap eng)
              in
              Option.iter Observe.flush obs;
              r
            end
            else begin
              let _, (p, attach_native) =
                make_process ~cmd:"cover" ~walkers process g rng
              in
              let p =
                match obs with
                | None -> p
                | Some obs ->
                    attach_native obs;
                    Observe.instrument obs p
              in
              let t =
                if edges then Ewalk.Cover.run_until_edge_cover ~cap p
                else Ewalk.Cover.run_until_vertex_cover ~cap p
              in
              Option.iter (fun obs -> Observe.finish obs p) obs;
              t
            end
          in
          (t, Graph.n g, Graph.m g))
        (Array.mapi (fun i rng -> (i, rng)) rngs)
    in
    let results =
      match registry with
      | Some reg -> with_listen ~pool ~t0 listen reg run_trials
      | None -> run_trials ()
    in
    print_utilization pool ~wall_s:(Obs.Clock.elapsed_s t0);
    (match (metrics, registry) with
    | Some path, Some registry -> write_metrics path registry
    | _ -> ());
    (match (export_metrics, registry) with
    | Some path, Some registry -> write_openmetrics ?prof path registry
    | _ -> ());
    let times =
      Array.to_list results
      |> List.filter_map (fun (t, _, _) -> Option.map float_of_int t)
    in
    let _, gn, gm = results.(0) in
    let pdesc =
      if compete then Printf.sprintf "%s[w=%d,compete]" process walkers
      else if walkers > 1 then Printf.sprintf "%s[w=%d]" process walkers
      else process
    in
    Printf.printf "%s on %s (n=%d, m=%d), %d trials, %s cover:\n" pdesc family
      gn gm trials
      (if edges then "edge" else "vertex");
    match times with
    | [] -> Printf.printf "  every trial hit its step cap\n"
    | _ ->
        let s = Ewalk_analysis.Stats.summarize (Array.of_list times) in
        let denom = float_of_int (if edges then gm else gn) in
        Printf.printf
          "  mean %.0f  (%.3f per %s; std %.0f; min %.0f; max %.0f)\n"
          s.Ewalk_analysis.Stats.mean
          (s.Ewalk_analysis.Stats.mean /. denom)
          (if edges then "edge" else "vertex")
          s.Ewalk_analysis.Stats.std s.Ewalk_analysis.Stats.min
          s.Ewalk_analysis.Stats.max;
        if List.length times < trials then
          Printf.printf "  (%d/%d trials hit the cap and were dropped)\n"
            (trials - List.length times)
            trials
  in
  Cmd.v
    (Cmd.info "cover" ~doc:"Measure cover times of a walk process.")
    Term.(
      const run $ family_arg $ process_arg $ n_arg $ trials_arg $ seed_arg
      $ walkers_arg $ compete_arg $ edges_arg $ metrics_arg
      $ export_metrics_arg $ profile_arg $ jobs_arg $ listen_arg)

(* -- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    let doc = "Write the JSONL event stream to $(docv) (default: stdout)." in
    Arg.(value & opt string "-" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let no_steps_arg =
    let doc =
      "Omit per-step events (keep run/phase/milestone events only)."
    in
    Arg.(value & flag & info [ "no-steps" ] ~doc)
  in
  let edges_arg =
    let doc = "Run until edge coverage instead of vertex coverage." in
    Arg.(value & flag & info [ "edges" ] ~doc)
  in
  let max_steps_arg =
    let doc = "Step cap (default: the generous Cover.default_cap)." in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"K" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Write a CRC-guarded snapshot of the full walk state (position, \
       counters, coverage, PRNG words) to $(docv) at \
       every checkpoint boundary; each write is atomic and emits a \
       $(b,checkpoint) trace event.  Only snapshottable processes \
       (e-process rules, srw, lazy-srw, rotor) qualify."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Checkpoint boundary spacing in steps (with $(b,--checkpoint))." in
    Arg.(value & opt int 1_000 & info [ "checkpoint-every" ] ~docv:"K" ~doc)
  in
  let resume_from_arg =
    let doc =
      "Restore the walk from snapshot $(docv) (recorded on the same \
       --family/--n/--seed graph) and continue it; the stream opens with a \
       $(b,resume) event.  The snapshot's process kind wins over \
       $(b,--process)."
    in
    Arg.(
      value & opt (some string) None & info [ "resume-from" ] ~docv:"FILE" ~doc)
  in
  let compete_arg =
    let doc =
      "Competing kernel mode: every walker keeps private bit-packed \
       visited sets (combine with $(b,--walkers)).  The stream interleaves \
       walker-local step events in round-robin order; $(b,--checkpoint) \
       writes $(b,kernel-competing) snapshots whose restore recomputes the \
       visit counters from the bitset popcounts."
    in
    Arg.(value & flag & info [ "compete" ] ~doc)
  in
  let run family process n seed walkers compete edges no_steps max_steps out
      metrics export_metrics profile checkpoint checkpoint_every resume_from
      listen =
    if walkers < 1 then begin
      Printf.eprintf "eproc trace: --walkers must be at least 1\n";
      exit 2
    end;
    with_profile profile @@ fun prof ->
    let t0 = Obs.Clock.now_ns () in
    let rng = Rng.create ~seed () in
    let g = Expt.Families.build family rng ~n in
    let oc, close_oc =
      if out = "-" then (stdout, fun () -> flush stdout)
      else begin
        Obs.Runlog.note_artifact ~key:"trace" ~path:out;
        let oc = open_out out in
        (oc, fun () -> close_out_noerr oc)
      end
    in
    Fun.protect ~finally:close_oc (fun () ->
        let sink = Obs.Trace.jsonl oc in
        let sink =
          if no_steps then
            Obs.Trace.filter
              (function Obs.Trace.Step _ -> false | _ -> true)
              sink
          else sink
        in
        (* Outermost so the flight recorder keeps full per-step fidelity
           even when --no-steps thins the written stream.  Identity when
           the recorder is off. *)
        let sink = Obs.Flight.wrap sink in
        let registry = Obs.Metrics.create () in
        with_listen ~t0 listen registry @@ fun () ->
        let obs = Observe.create ~metrics:registry ~sink () in
        if checkpoint_every <= 0 then begin
          Printf.eprintf "eproc trace: --checkpoint-every must be positive\n";
          exit 2
        end;
        let write_metrics_files () =
          (match metrics with
          | Some path ->
              Obs.Metrics.write_file registry path;
              Printf.eprintf "wrote %s\n" path
          | None -> ());
          match export_metrics with
          | Some path ->
              Obs.Export.write_file ?prof registry path;
              Printf.eprintf "wrote %s (OpenMetrics)\n" path
          | None -> ()
        in
        if compete then begin
          (* Competing kernel walkers have no shared coverage, so the
             generic Cover loop does not apply: drive the engine directly,
             emitting its walker-interleaved step stream and checkpointing
             on the total-step clock.  The loop is sequential round-robin,
             hence deterministic — a resumed leg's tail is byte-identical
             to the uninterrupted stream. *)
          if edges then begin
            Printf.eprintf
              "eproc trace: --compete tracks per-walker vertex covers; \
               --edges is not supported\n";
            exit 2
          end;
          let kp = require_engine_proc ~cmd:"trace" process in
          let eng, resumed_at =
            match resume_from with
            | Some path -> (
                match Snapshot.read_with_id g ~path with
                | Error e ->
                    Printf.eprintf "eproc trace: %s: %s\n" path
                      (Snapshot.error_to_string e);
                    exit 2
                | Ok (Snapshot.Kernel k, snap_run)
                  when Engine.mode k = Engine.Competing ->
                    adopt_parent_run snap_run.Obs.Runlog.run_id;
                    (k, Some (Engine.steps k))
                | Ok _ ->
                    Printf.eprintf
                      "eproc trace: %s is not a competing kernel snapshot\n"
                      path;
                    exit 2)
            | None ->
                ( Engine.build ~mode:Engine.Competing kp g rng
                    ~walkers,
                  None )
          in
          let all_covered () =
            let rec go i =
              i >= Engine.walkers eng
              || Ewalk.Coverage.all_vertices_visited
                   (Engine.walker_coverage eng i)
                 && go (i + 1)
            in
            go 0
          in
          Obs.Trace.prologue (Obs.Trace.emit sink) ?resumed_at
            ~name:(Engine.name eng) ~n:(Graph.n g) ~m:(Graph.m g)
            ~start:(Engine.position eng);
          Observe.attach obs eng;
          (match checkpoint with
          | Some path -> Obs.Runlog.note_artifact ~key:"checkpoint" ~path
          | None -> ());
          let checkpoints_c = Obs.Metrics.counter registry "checkpoints" in
          let cap =
            match max_steps with
            | Some c -> c
            | None -> Ewalk.Cover.default_cap g
          in
          while Engine.steps eng < cap && not (all_covered ()) do
            Engine.step eng;
            let step = Engine.steps eng in
            match checkpoint with
            | Some path when step mod checkpoint_every = 0 ->
                (match
                   Snapshot.write ~path
                     (Snapshot.Kernel eng)
                 with
                | Ok () -> ()
                | Error e ->
                    Printf.eprintf "eproc trace: %s: %s\n" path
                      (Snapshot.error_to_string e);
                    exit 2);
                Obs.Trace.emit sink (Obs.Trace.Checkpoint { step });
                Obs.Metrics.incr checkpoints_c
            | _ -> ()
          done;
          let covered = all_covered () in
          Observe.flush obs;
          Obs.Trace.emit sink
            (Obs.Trace.Run_end { steps = Engine.steps eng; covered });
          Obs.Trace.close sink;
          if covered then
            Printf.eprintf
              "%s: every walker covered its own vertices of %s (n=%d, \
               m=%d) by total step %d\n"
              (Engine.name eng) family (Graph.n g) (Graph.m g)
              (Engine.steps eng)
          else
            Printf.eprintf "%s hit the %d-step cap before all walkers \
                            covered\n"
              (Engine.name eng) cap;
          write_metrics_files ()
        end
        else begin
          let engine, (p, attach_native), resumed_at =
            match resume_from with
            | Some path -> (
                match Snapshot.read_with_id g ~path with
                | Error e ->
                    Printf.eprintf "eproc trace: %s: %s\n" path
                      (Snapshot.error_to_string e);
                    exit 2
                | Ok (w, snap_run) ->
                    (* Adopt before instrumentation so the trace prologue's
                       run_info and any checkpoint written by this leg carry
                       the child id. *)
                    adopt_parent_run snap_run.Obs.Runlog.run_id;
                    let e = Snapshot.engine w in
                    (Some e, engine_process e, Some (Engine.steps e)))
            | None ->
                let e, p = make_process ~cmd:"trace" ~walkers process g rng in
                (e, p, None)
          in
          let pname =
            match (resume_from, engine) with
            | Some _, Some e -> Engine.name e
            | _ -> process
          in
          attach_native obs;
          let p = Observe.instrument ?resumed_at obs p in
          let p =
            match checkpoint with
            | None -> p
            | Some path ->
                let w =
                  match engine with
                  | Some e -> Snapshot.of_engine e
                  | None ->
                      Printf.eprintf
                        "eproc trace: process %S cannot be checkpointed\n"
                        process;
                      exit 2
                in
                Obs.Runlog.note_artifact ~key:"checkpoint" ~path;
                let checkpoints_c = Obs.Metrics.counter registry "checkpoints" in
                Ewalk.Cover.with_step_hook p ~hook:(fun p ->
                    let step = p.Ewalk.Cover.steps_done () in
                    if step mod checkpoint_every = 0 then begin
                      (match Snapshot.write ~path w with
                      | Ok () -> ()
                      | Error e ->
                          Printf.eprintf "eproc trace: %s: %s\n" path
                            (Snapshot.error_to_string e);
                          exit 2);
                      Obs.Trace.emit sink (Obs.Trace.Checkpoint { step });
                      Obs.Metrics.incr checkpoints_c
                    end)
          in
          let cap =
            match max_steps with
            | Some c -> c
            | None -> Ewalk.Cover.default_cap g
          in
          let result =
            if edges then Ewalk.Cover.run_until_edge_cover ~cap p
            else Ewalk.Cover.run_until_vertex_cover ~cap p
          in
          Observe.finish obs p;
          Obs.Trace.close sink;
          (match result with
          | Some t ->
              Printf.eprintf "%s covered %s of %s (n=%d, m=%d) at step %d\n"
                pname
                (if edges then "edges" else "vertices")
                family (Graph.n g) (Graph.m g) t
          | None ->
              Printf.eprintf "%s hit the %d-step cap before covering %s\n"
                pname cap
                (if edges then "edges" else "vertices"));
          write_metrics_files ()
        end)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one walk and emit its structured event stream as JSONL (one \
          event per line: run_start, step, phase, milestone, run_end).")
    Term.(
      const run $ family_arg $ process_arg $ n_arg $ seed_arg $ walkers_arg
      $ compete_arg $ edges_arg $ no_steps_arg
      $ max_steps_arg $ out_arg $ metrics_arg $ export_metrics_arg
      $ profile_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_from_arg
      $ listen_arg)

(* -- verify-trace ----------------------------------------------------------- *)

(* Replay a recorded JSONL event stream against the Ewalk_check verifier.
   The graph is rebuilt exactly as `eproc trace` built it (same family,
   size and seed => same deterministic construction).  Exit codes: 0 =
   every invariant held, 1 = a violation, 2 = unreadable input. *)
let verify_trace_cmd =
  let file_arg =
    let doc = "JSONL trace file as written by $(b,eproc trace) ($(b,-) = stdin)." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)
  in
  let flight_arg =
    let doc =
      "Accept a truncated stream — a crash flight-recorder dump \
       ($(b,flight.jsonl)): a missing $(b,run_end) is reported as \
       `truncated' instead of failing, while every event the dump does \
       carry is verified at full strength."
    in
    Arg.(value & flag & info [ "flight" ] ~doc)
  in
  let run family n seed flight file =
    let rng = Rng.create ~seed () in
    let g = Expt.Families.build family rng ~n in
    let ic, close_ic =
      if file = "-" then (stdin, fun () -> ())
      else
        match open_in file with
        | ic -> (ic, fun () -> close_in_noerr ic)
        | exception Sys_error e ->
            Printf.eprintf "eproc verify-trace: %s\n" e;
            exit 2
    in
    Fun.protect ~finally:close_ic (fun () ->
        let verifier = Ewalk_check.Replay.create g in
        let violation v =
          Printf.eprintf "eproc verify-trace: %s\n"
            (Ewalk_check.Invariant.violation_to_string v);
          exit 1
        in
        let lineno = ref 0 in
        (try
           while true do
             let line = input_line ic in
             incr lineno;
             if String.trim line <> "" then
               match Obs.Trace.event_of_line ~line:!lineno line with
               | Error e ->
                   Printf.eprintf "eproc verify-trace: %s\n" e;
                   exit 2
               | Ok ev -> (
                   match Ewalk_check.Replay.feed verifier ev with
                   | Ok () -> ()
                   | Error v -> violation v)
           done
         with End_of_file -> ());
        let finish =
          if flight then Ewalk_check.Replay.finish_partial
          else Ewalk_check.Replay.finish
        in
        match finish verifier with
        | Error v -> violation v
        | Ok s ->
            Printf.printf "verify-trace: ok - %s\n"
              (Ewalk_check.Replay.summary_to_string s))
  in
  Cmd.v
    (Cmd.info "verify-trace"
       ~doc:
         "Replay a recorded $(b,eproc trace) JSONL stream against the walk \
          invariants (edge validity, unvisited-edge preference, blue-parity, \
          milestone consistency).  Exit 1 on a violation, 2 on unreadable \
          input.  With $(b,--flight), judge a crash flight-recorder dump \
          (truncation allowed).")
    Term.(const run $ family_arg $ n_arg $ seed_arg $ flight_arg $ file_arg)

(* -- openmetrics-validate ---------------------------------------------------- *)

(* Syntax-check an OpenMetrics text exposition (as served by --listen
   /metrics or written by --export-metrics).  This is what `make
   serve-smoke` pipes the live endpoint's output through.  Exit codes:
   0 = valid, 1 = malformed, 2 = unreadable input. *)
let openmetrics_validate_cmd =
  let file_arg =
    let doc = "OpenMetrics text file ($(b,-) = stdin)." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let ic, close_ic =
      if file = "-" then (stdin, fun () -> ())
      else
        match open_in file with
        | ic -> (ic, fun () -> close_in_noerr ic)
        | exception Sys_error e ->
            Printf.eprintf "eproc openmetrics-validate: %s\n" e;
            exit 2
    in
    let body =
      Fun.protect ~finally:close_ic (fun () ->
          let buf = Buffer.create 65536 in
          let chunk = Bytes.create 65536 in
          let rec go () =
            let k = input ic chunk 0 (Bytes.length chunk) in
            if k > 0 then begin
              Buffer.add_subbytes buf chunk 0 k;
              go ()
            end
          in
          go ();
          Buffer.contents buf)
    in
    match Obs.Export.validate body with
    | Ok () ->
        Printf.printf "openmetrics-validate: ok (%d bytes)\n"
          (String.length body)
    | Error e ->
        Printf.eprintf "eproc openmetrics-validate: %s\n" e;
        exit 1
  in
  Cmd.v
    (Cmd.info "openmetrics-validate"
       ~doc:
         "Check a file (or stdin) against the OpenMetrics text exposition \
          shape the exporter emits.  Exit 1 on malformed input, 2 on an \
          unreadable file.")
    Term.(const run $ file_arg)

(* -- check-oracle ----------------------------------------------------------- *)

let check_oracle_cmd =
  let seeds_arg =
    let doc = "Number of seeds per (graph, mode) pair (seeds 1..$(docv))." in
    Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"K" ~doc)
  in
  let kernel_flag =
    let doc =
      "Also run the multi-walker kernel battery: every kernel process vs \
       the naive lockstep oracle at W in {1, 4, 17}, cooperating and \
       competing."
    in
    Arg.(value & flag & info [ "kernel" ] ~doc)
  in
  let run seeds kernel jobs =
    if seeds <= 0 then begin
      Printf.eprintf "eproc check-oracle: --seeds must be positive\n";
      exit 2
    end;
    let seed_list = List.init seeds (fun i -> i + 1) in
    let jobs_shown =
      match jobs with Some j -> j | None -> Ewalk_par.Pool.default_jobs ()
    in
    let cases = Ewalk_check.Differential.stock_cases ~seeds:seed_list () in
    let report = Ewalk_check.Differential.run_suite ?jobs cases in
    Printf.printf "check-oracle: %s (jobs=%d)\n"
      (Ewalk_check.Differential.report_line report)
      jobs_shown;
    let kernel_failures =
      if not kernel then []
      else begin
        let kcases =
          Ewalk_check.Differential.stock_kernel_cases ~seeds:seed_list ()
        in
        let kreport = Ewalk_check.Differential.run_kernel_suite ?jobs kcases in
        Printf.printf "check-oracle[kernel]: %s (jobs=%d)\n"
          (Ewalk_check.Differential.report_line kreport)
          jobs_shown;
        kreport.Ewalk_check.Differential.failures
      end
    in
    match report.Ewalk_check.Differential.failures @ kernel_failures with
    | [] -> ()
    | fs ->
        List.iter
          (fun (name, msg) -> Printf.eprintf "  FAIL %s: %s\n" name msg)
          fs;
        exit 1
  in
  Cmd.v
    (Cmd.info "check-oracle"
       ~doc:
         "Differential-test the production walks against the naive reference \
          oracles over the stock graph suite (RNG lockstep where the rule is \
          deterministic, invariant-monitored everywhere).  Exit 1 on any \
          divergence.")
    Term.(const run $ seeds_arg $ kernel_flag $ jobs_arg)

(* -- checkpoint-inspect ----------------------------------------------------- *)

(* Describe a durability artifact without touching it: a snapshot file
   (CRC-verified, then summarised) or a campaign checkpoint directory
   (manifest + journal size).  Exit codes: 0 = readable, 2 = missing,
   corrupt or mismatched. *)
let checkpoint_inspect_cmd =
  let path_arg =
    let doc =
      "A snapshot file written by $(b,eproc trace --checkpoint), or a \
       campaign directory written by $(b,eproc experiment --checkpoint-dir)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let run path =
    let is_dir = try Sys.is_directory path with Sys_error _ -> false in
    let result =
      if is_dir then Ewalk_resume.Campaign.describe ~dir:path
      else
        match Snapshot.describe ~path with
        | Ok s -> Ok s
        | Error e -> Error (Snapshot.error_to_string e)
    in
    match result with
    | Ok s -> print_endline s
    | Error e ->
        Printf.eprintf "eproc checkpoint-inspect: %s\n" e;
        exit 2
  in
  Cmd.v
    (Cmd.info "checkpoint-inspect"
       ~doc:
         "Describe a walk snapshot file (after CRC verification) or a \
          campaign checkpoint directory.  Exit 2 if the artifact is \
          missing, corrupt or unrecognised.")
    Term.(const run $ path_arg)

(* -- spectra -------------------------------------------------------------- *)

let spectra_cmd =
  let run family n seed =
    let rng = Rng.create ~seed () in
    let g = Expt.Families.build family rng ~n in
    Format.printf "%a@." Graph.pp g;
    if Graph.n g <= 256 then begin
      let r = Ewalk_spectral.Spectral.gap_exact g in
      Printf.printf "lambda_2  = %.6f\nlambda_n  = %.6f\nlambda_max= %.6f\n"
        r.Ewalk_spectral.Spectral.lambda_2 r.Ewalk_spectral.Spectral.lambda_n
        r.Ewalk_spectral.Spectral.lambda_max;
      Printf.printf "gap       = %.6f\n" r.Ewalk_spectral.Spectral.gap
    end
    else begin
      let lmax =
        Ewalk_spectral.Spectral.lambda_max_power ~tol:1e-8 ~max_iter:6_000 g
      in
      Printf.printf "lambda_max~ %.6f (power iteration)\ngap       ~ %.6f\n"
        lmax (1.0 -. lmax)
    end;
    Printf.printf "mixing bound (K=6): %.0f steps\n"
      (Ewalk_spectral.Spectral.mixing_time_bound g);
    if Graph.n g <= 18 then begin
      let phi = Ewalk_spectral.Spectral.conductance_exact g in
      let lo, hi = Ewalk_spectral.Spectral.cheeger_bounds g in
      Printf.printf "conductance = %.4f; Cheeger: %.4f <= lambda_2 <= %.4f\n"
        phi lo hi
    end
  in
  Cmd.v
    (Cmd.info "spectra" ~doc:"Spectral report of a generated graph.")
    Term.(const run $ family_arg $ n_arg $ seed_arg)

(* -- euler ---------------------------------------------------------------- *)

let euler_cmd =
  let run family n seed =
    let rng = Rng.create ~seed () in
    let g = Expt.Families.build family rng ~n in
    Format.printf "%a@." Graph.pp g;
    if Ewalk_graph.Euler.is_eulerian g then begin
      match Ewalk_graph.Euler.euler_circuit g ~start:0 with
      | Some trail ->
          Printf.printf "eulerian: yes - circuit of %d edges from vertex 0\n"
            (List.length trail)
      | None -> Printf.printf "eulerian: yes, but vertex 0 is isolated\n"
    end
    else begin
      Printf.printf "eulerian: no (odd degrees or edges in several components)\n";
      if Graph.all_degrees_even g then begin
        let trails = Ewalk_graph.Euler.closed_trail_decomposition g in
        Printf.printf "closed-trail decomposition: %d trails\n"
          (List.length trails)
      end
    end
  in
  Cmd.v
    (Cmd.info "euler"
       ~doc:"Euler-circuit report: the offline m-step edge-cover optimum.")
    Term.(const run $ family_arg $ n_arg $ seed_arg)

(* -- audit ----------------------------------------------------------------- *)

let audit_cmd =
  let run family n seed =
    let rng = Rng.create ~seed () in
    let g = Expt.Families.build family rng ~n in
    Format.printf "%a@." Graph.pp g;
    let even = Graph.all_degrees_even g in
    let connected = Ewalk_graph.Traversal.is_connected g in
    Printf.printf "even degrees: %b\nconnected:    %b\n" even connected;
    let gap =
      if Graph.n g <= 256 then
        (Ewalk_spectral.Spectral.gap_exact g).Ewalk_spectral.Spectral.gap
      else
        1.0
        -. Ewalk_spectral.Spectral.lambda_max_power ~tol:1e-7 ~max_iter:3_000 g
    in
    Printf.printf "spectral gap: %.4f\n" gap;
    if even then begin
      let lower = ref max_int in
      for v = 0 to min (Graph.n g) 50 - 1 do
        let b = Ewalk_analysis.Goodness.ell_of_vertex g v ~max_len:8 in
        if b.Ewalk_analysis.Goodness.lower < !lower then
          lower := b.Ewalk_analysis.Goodness.lower
      done;
      Printf.printf "ell (certified, sampled): >= %d\n" !lower;
      Printf.printf "Theorem 1 envelope (c=1): %.0f steps\n"
        (Ewalk_theory.Bounds.theorem1_vertex_cover ~ell:!lower
           ~gap:(Float.max gap 1e-6) (Graph.n g))
    end;
    let verdict = even && connected && gap > 0.05 in
    Printf.printf "verdict: %s\n"
      (if verdict then "Theta(n) E-process cover expected"
       else "Theorem 1 hypotheses not all satisfied")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Audit a graph against Theorem 1's hypotheses.")
    Term.(const run $ family_arg $ n_arg $ seed_arg)

(* -- bench-diff ------------------------------------------------------------ *)

(* The regression gate over the bench ledger.  Exit codes: 0 = no kernel
   regressed, 1 = at least one regression, 2 = a record failed to load.
   `make bench-check` wires this against the committed baseline. *)
let bench_diff_cmd =
  let baseline_arg =
    let doc =
      "Baseline record: a BENCH_core.json-style snapshot, or a .jsonl \
       ledger (its last record is used)."
    in
    Arg.(value & pos 0 string "BENCH_baseline.json" & info [] ~docv:"BASE" ~doc)
  in
  let candidate_arg =
    let doc = "Candidate record (same formats as $(b,BASE))." in
    Arg.(
      value & pos 1 string "BENCH_history.jsonl" & info [] ~docv:"CAND" ~doc)
  in
  let tolerance_arg =
    let doc =
      "A kernel regresses when its candidate median exceeds the baseline \
       median by more than $(docv) baseline MADs (subject to \
       $(b,--min-rel-pct))."
    in
    Arg.(
      value & opt float 6.0 & info [ "tolerance-mads" ] ~docv:"K" ~doc)
  in
  let min_rel_arg =
    let doc =
      "Relative tolerance floor in percent: kernels whose MAD is ~0 still \
       get this much upward slack."
    in
    Arg.(value & opt float 25.0 & info [ "min-rel-pct" ] ~docv:"PCT" ~doc)
  in
  let run baseline candidate tolerance_mads min_rel_pct =
    let load what path =
      match Obs.Ledger.load_record path with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "eproc bench-diff: %s %s: %s\n" what path e;
          exit 2
    in
    let base = load "baseline" baseline in
    let cand = load "candidate" candidate in
    let verdicts =
      Obs.Ledger.diff ~tolerance_mads ~min_rel:(min_rel_pct /. 100.0)
        ~baseline:base cand
    in
    Printf.printf "bench-diff: %s (%s, %s) vs %s (%s, %s)\n" baseline
      base.Obs.Ledger.git_rev base.Obs.Ledger.scale candidate
      cand.Obs.Ledger.git_rev cand.Obs.Ledger.scale;
    if verdicts = [] then
      print_endline "  (no kernels in common; nothing to compare)"
    else begin
      Printf.printf "%-36s %12s %12s %9s %10s\n" "kernel" "base" "cand"
        "delta" "tolerance";
      List.iter
        (fun v ->
          (* Rate kernels carry steps/second, not nanoseconds. *)
          let cell x =
            if Obs.Ledger.higher_is_better v.Obs.Ledger.v_kernel then
              Printf.sprintf "%9.2fM/s" (x /. 1e6)
            else Printf.sprintf "%9.2f us" (x /. 1e3)
          in
          Printf.printf "%-36s %s %s %+8.1f%% %9.1f%% %s\n"
            v.Obs.Ledger.v_kernel
            (cell v.Obs.Ledger.v_base_ns)
            (cell v.Obs.Ledger.v_cand_ns)
            v.Obs.Ledger.v_delta_percent v.Obs.Ledger.v_tolerance_percent
            (if v.Obs.Ledger.v_regressed then "REGRESSED" else "ok"))
        verdicts
    end;
    if Obs.Ledger.any_regression verdicts then begin
      print_endline "bench-diff: REGRESSION detected";
      exit 1
    end
    else print_endline "bench-diff: ok"
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench ledger records kernel by kernel (MAD-scaled \
          tolerance); exit 1 on regression, 2 on a load error.")
    Term.(
      const run $ baseline_arg $ candidate_arg $ tolerance_arg $ min_rel_arg)

(* -- report ---------------------------------------------------------------- *)

let report_cmd =
  let out_arg =
    let doc = "Write the markdown report to $(docv) (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run scale seed out jobs =
    Ewalk_par.Pool.with_pool ?jobs @@ fun pool ->
    let buf = Buffer.create 65536 in
    Buffer.add_string buf
      (Printf.sprintf
         "# ewalk experiment report\n\nScale: %s.  Seed: %d.  One section per \
          experiment of DESIGN.md section 4.\n\n"
         (Expt.Sweep.scale_name scale) seed);
    List.iter
      (fun e ->
        let table = e.Expt.Experiments.run ~pool:(Some pool) ~scale ~seed in
        Buffer.add_string buf (Expt.Table.to_markdown table);
        Buffer.add_string buf
          (Printf.sprintf "\n*(reproduces: %s)*\n\n" e.Expt.Experiments.paper_item);
        Printf.eprintf "done: %s\n%!" e.Expt.Experiments.id)
      Expt.Experiments.all;
    match out with
    | None -> print_string (Buffer.contents buf)
    | Some path -> write_string_to_file path (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run every experiment and emit one markdown results report.")
    Term.(const run $ scale_arg $ seed_arg $ out_arg $ jobs_arg)

(* -- runs ------------------------------------------------------------------ *)

(* Provenance browser over the runs directory: every eproc invocation run
   with EWALK_RUNS_DIR set leaves runs/<id>/meta.json (plus
   throughput.jsonl once the walk produced samples); `eproc runs` lists
   them, reassembles parent_run_id resume chains, cross-references flight
   dumps, and compares throughput series with median/MAD deltas. *)

let runs_dir_arg =
  let doc = "Runs directory (default: $(b,EWALK_RUNS_DIR), else $(i,runs))." in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let resolve_runs_dir = function
  | Some d -> d
  | None -> (
      match Sys.getenv_opt "EWALK_RUNS_DIR" with
      | Some d when d <> "" -> d
      | _ -> "runs")

type run_meta = {
  rm_id : string;
  rm_parent : string option;
  rm_config : string;
  rm_epoch : int;
  rm_fields : (string * Obs.Json.t) list;
  rm_dir : string;
}

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_run_meta dir entry =
  let path = Filename.concat (Filename.concat dir entry) "meta.json" in
  if not (Sys.file_exists path) then None
  else
    match Obs.Json.of_string (read_whole_file path) with
    | Error _ -> None
    | Ok doc -> (
        let str k = Option.bind (Obs.Json.member k doc) Obs.Json.to_string_opt in
        match str "run_id" with
        | Some rid when Obs.Runlog.validate_id rid ->
            Some
              {
                rm_id = rid;
                rm_parent =
                  (match str "parent_run_id" with
                  | Some p when Obs.Runlog.validate_id p -> Some p
                  | _ -> None);
                rm_config = Option.value ~default:"" (str "config");
                rm_epoch =
                  Option.value ~default:0
                    (Option.bind (Obs.Json.member "epoch_ns" doc)
                       Obs.Json.to_int_opt);
                rm_fields =
                  (match doc with Obs.Json.Obj kvs -> kvs | _ -> []);
                rm_dir = Filename.concat dir entry;
              }
        | _ -> None)

let scan_runs dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (load_run_meta dir)
    |> List.sort (fun a b ->
           match compare a.rm_epoch b.rm_epoch with
           | 0 -> compare a.rm_id b.rm_id
           | c -> c)

let read_throughput_pairs path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let acc = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Obs.Json.of_string line with
               | Ok doc -> (
                   match
                     ( Option.bind (Obs.Json.member "step" doc)
                         Obs.Json.to_int_opt,
                       Option.bind (Obs.Json.member "mono_ns" doc)
                         Obs.Json.to_int_opt )
                   with
                   | Some s, Some t -> acc := (s, t) :: !acc
                   | _ -> ())
               | Error _ -> ()
           done
         with End_of_file -> ());
        List.rev !acc)
  end

let run_pairs meta =
  read_throughput_pairs (Filename.concat meta.rm_dir "throughput.jsonl")

(* (median, MAD) of a rate sample — the robust pair `runs compare` reports
   (a stalled tail or warm-up spike should not move the verdict). *)
let median_mad xs =
  match Array.of_list xs with
  | [||] -> None
  | arr -> Some (Obs.Benchstat.median arr, Obs.Benchstat.mad arr)

let rate_string = function
  | Some r -> Printf.sprintf "%.0f" r
  | None -> "-"

let runs_list_cmd =
  let run dir =
    let dir = resolve_runs_dir dir in
    let metas = scan_runs dir in
    if metas = [] then Printf.printf "no runs under %s\n" dir
    else begin
      Printf.printf "%-18s %-18s %12s  %s\n" "RUN" "PARENT" "STEPS/S"
        "CONFIG";
      List.iter
        (fun m ->
          Printf.printf "%-18s %-18s %12s  %s\n" m.rm_id
            (Option.value ~default:"-" m.rm_parent)
            (rate_string
               (Obs.Throughput.lifetime_rate_of_pairs (run_pairs m)))
            m.rm_config)
        metas
    end
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List recorded runs: id, parent, lifetime steps/s, config.")
    Term.(const run $ runs_dir_arg)

let runs_show_cmd =
  let id_arg =
    let doc = "Run id to describe (r + 16 hex digits)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_ID" ~doc)
  in
  let run dir id =
    let dir = resolve_runs_dir dir in
    let metas = scan_runs dir in
    match List.find_opt (fun m -> m.rm_id = id) metas with
    | None ->
        Printf.eprintf "eproc runs: no run %s under %s\n" id dir;
        exit 2
    | Some m ->
        Printf.printf "run       %s\n" m.rm_id;
        (match m.rm_parent with
        | Some p -> Printf.printf "parent    %s\n" p
        | None -> ());
        Printf.printf "config    %s\n" m.rm_config;
        Printf.printf "epoch_ns  %d\n" m.rm_epoch;
        List.iter
          (fun (k, v) ->
            match k with
            | "schema" | "run_id" | "parent_run_id" | "config" | "epoch_ns"
            | "artifacts" ->
                ()
            | _ -> Printf.printf "%-9s %s\n" k (Obs.Json.to_string v))
          m.rm_fields;
        let artifacts =
          match List.assoc_opt "artifacts" m.rm_fields with
          | Some (Obs.Json.Obj arts) -> arts
          | _ -> []
        in
        if artifacts <> [] then begin
          print_endline "artifacts:";
          List.iter
            (fun (k, v) ->
              let p = Option.value ~default:"?" (Obs.Json.to_string_opt v) in
              Printf.printf "  %-12s %s%s\n" k p
                (if Sys.file_exists p then "" else " (missing)"))
            artifacts
        end;
        (let pairs = run_pairs m in
         match median_mad (Obs.Throughput.rates_of_pairs pairs) with
         | Some (med, mad) ->
             Printf.printf
               "throughput: %d samples, median %.0f steps/s (MAD %.0f), \
                lifetime %s steps/s\n"
               (List.length pairs) med mad
               (rate_string (Obs.Throughput.lifetime_rate_of_pairs pairs))
         | None -> ());
        (* Resume chain, oldest ancestor first.  Ancestors come from
           parent pointers (a parent whose meta.json is gone is still
           shown, marked missing); descendants are runs that name one of
           the chain as parent. *)
        let by_id = List.map (fun x -> (x.rm_id, x)) metas in
        let rec up acc parent =
          match parent with
          | None -> acc
          | Some p ->
              if List.mem p acc then acc
              else
                let acc = p :: acc in
                (match List.assoc_opt p by_id with
                | Some pm -> up acc pm.rm_parent
                | None -> acc)
        in
        let ancestors = up [] m.rm_parent in
        let rec down cur =
          List.concat_map
            (fun k -> k.rm_id :: down k.rm_id)
            (List.filter (fun x -> x.rm_parent = Some cur) metas)
        in
        let descendants = down id in
        if ancestors <> [] || descendants <> [] then begin
          print_endline "resume chain (oldest first):";
          List.iter
            (fun rid ->
              Printf.printf "  %s%s%s\n" rid
                (if rid = id then " <- this run" else "")
                (if List.mem_assoc rid by_id then "" else " (meta missing)"))
            (ancestors @ (id :: descendants))
        end;
        (* Flight-dump cross-reference: scan the run's recorded flight
           directory for dumps whose run_info prologue names a run in the
           chain. *)
        let chain = ancestors @ (id :: descendants) in
        (match List.assoc_opt "flight_dir" artifacts with
        | Some (Obs.Json.String fdir)
          when Sys.file_exists fdir && Sys.is_directory fdir ->
            Array.iter
              (fun f ->
                if
                  String.length f >= 6
                  && String.sub f 0 6 = "flight"
                  && Filename.check_suffix f ".jsonl"
                then
                  let path = Filename.concat fdir f in
                  let dump_run = ref None in
                  (try
                     let ic = open_in path in
                     Fun.protect
                       ~finally:(fun () -> close_in_noerr ic)
                       (fun () ->
                         try
                           while !dump_run = None do
                             match Obs.Json.of_string (input_line ic) with
                             | Ok doc
                               when Obs.Json.member "type" doc
                                    = Some (Obs.Json.String "run_info") ->
                                 dump_run :=
                                   Option.bind
                                     (Obs.Json.member "run_id" doc)
                                     Obs.Json.to_string_opt
                             | _ -> ()
                           done
                         with End_of_file -> ())
                   with Sys_error _ -> ());
                  match !dump_run with
                  | Some rid when List.mem rid chain ->
                      Printf.printf "flight dump: %s (run %s)\n" path rid
                  | _ -> ())
              (Sys.readdir fdir)
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Describe one run: meta, artifacts, throughput summary, resume \
          chain, flight dumps.")
    Term.(const run $ runs_dir_arg $ id_arg)

let runs_compare_cmd =
  let a_arg =
    let doc = "Baseline run id." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_A" ~doc)
  in
  let b_arg =
    let doc = "Candidate run id." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RUN_B" ~doc)
  in
  let run dir a b =
    let dir = resolve_runs_dir dir in
    let stats id =
      let pairs =
        read_throughput_pairs
          (Filename.concat (Filename.concat dir id) "throughput.jsonl")
      in
      match median_mad (Obs.Throughput.rates_of_pairs pairs) with
      | Some s -> s
      | None ->
          Printf.eprintf "eproc runs: %s has no throughput series under %s\n"
            id dir;
          exit 2
    in
    let med_a, mad_a = stats a in
    let med_b, mad_b = stats b in
    let delta = med_b -. med_a in
    let pct = if med_a <> 0.0 then 100.0 *. delta /. med_a else Float.nan in
    Printf.printf "%-18s median %12.0f steps/s  MAD %10.0f\n" a med_a mad_a;
    Printf.printf "%-18s median %12.0f steps/s  MAD %10.0f\n" b med_b mad_b;
    let verdict =
      if Float.abs delta <= mad_a +. mad_b then
        "within noise (|delta| <= MAD_a + MAD_b)"
      else if delta > 0.0 then "faster"
      else "slower"
    in
    Printf.printf "delta %+.0f steps/s (%+.1f%%) - %s\n" delta pct verdict
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two runs' throughput series: median/MAD delta.")
    Term.(const run $ runs_dir_arg $ a_arg $ b_arg)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs"
       ~doc:"Browse recorded run provenance (list / show / compare).")
    [ runs_list_cmd; runs_show_cmd; runs_compare_cmd ]

(* -- load-test ------------------------------------------------------------- *)

(* Drive an eprocd daemon with N concurrent sessions from C client
   domains: a create storm, then rounds of step requests across every
   session.  With --port 0 (the default) the daemon runs in-process on
   an ephemeral port and a throwaway state dir, so the command is a
   self-contained serving benchmark; against a --port it load-tests a
   daemon someone else started (the serve smoke script does both).  The
   derived `headline:serve_*` bench kernels measure the same stack
   in-process — this command is the operational, many-clients view. *)
let load_test_cmd =
  let sessions_arg =
    let doc = "How many sessions to create and drive." in
    Arg.(value & opt int 1000 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let steps_arg =
    let doc = "Steps per step request." in
    Arg.(value & opt int 100 & info [ "steps" ] ~docv:"K" ~doc)
  in
  let rounds_arg =
    let doc = "Step requests per session." in
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let clients_arg =
    let doc = "Concurrent client domains." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"C" ~doc)
  in
  let port_arg =
    let doc =
      "Target an already-running eprocd on this port (default: start one \
       in-process on an ephemeral port with a throwaway state dir)."
    in
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let cap_arg =
    let doc = "Resident cap for the in-process daemon (forces hibernation churn)." in
    Arg.(value & opt int 64 & info [ "resident-cap" ] ~docv:"K" ~doc)
  in
  let compete_arg =
    let doc = "Create competing-mode sessions." in
    Arg.(value & flag & info [ "compete" ] ~doc)
  in
  let run family process n seed walkers compete sessions steps rounds clients
      port cap =
    if sessions < 1 || steps < 1 || rounds < 1 || clients < 1 then begin
      Printf.eprintf
        "eproc load-test: sessions, steps, rounds and clients must be \
         positive\n";
      exit 2
    end;
    let own_daemon, port =
      if port <> 0 then (None, port)
      else
        match Ewalk_serve.Daemon.start ~resident_cap:cap () with
        | Error e ->
            Printf.eprintf "eproc load-test: %s\n" e;
            exit 2
        | Ok d -> (Some d, Ewalk_serve.Daemon.port d)
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter (fun d -> ignore (Ewalk_serve.Daemon.stop d)) own_daemon)
    @@ fun () ->
    let body =
      Obs.Json.to_string
        (Obs.Json.Obj
           [
             ("family", Obs.Json.String family);
             ("n", Obs.Json.Int n);
             ("process", Obs.Json.String process);
             ("seed", Obs.Json.Int seed);
             ("walkers", Obs.Json.Int walkers);
             ( "mode",
               Obs.Json.String (if compete then "competing" else "cooperating")
             );
           ])
    in
    let clients = min clients sessions in
    let failures = Atomic.make 0 in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Atomic.incr failures;
          Printf.eprintf "eproc load-test: %s\n" m)
        fmt
    in
    (* Phase 1: the create storm.  Each client creates its share and
       keeps the ids the daemon assigned plus per-create latencies. *)
    let share c = (sessions + clients - 1 - c) / clients in
    let t0 = Obs.Clock.now_ns () in
    let created =
      Array.init clients (fun c ->
          Domain.spawn (fun () ->
              let ids = ref [] and lats = ref [] in
              for _ = 1 to share c do
                let t = Obs.Clock.now_ns () in
                match
                  Ewalk_serve.Client.request ~port ~meth:"POST"
                    ~path:"/sessions" ~body ()
                with
                | Ok { status = 201; body } -> (
                    lats := float_of_int (Obs.Clock.elapsed_ns t) :: !lats;
                    match
                      Result.bind (Obs.Json.of_string (String.trim body))
                        (fun j ->
                          match
                            Option.bind (Obs.Json.member "id" j)
                              Obs.Json.to_string_opt
                          with
                          | Some id -> Ok id
                          | None -> Error "no id")
                    with
                    | Ok id -> ids := id :: !ids
                    | Error e -> fail "create: bad response (%s)" e)
                | Ok { status; _ } -> fail "create: status %d" status
                | Error e -> fail "create: %s" e
              done;
              (List.rev !ids, !lats)))
      |> Array.map Domain.join
    in
    let create_s = Obs.Clock.elapsed_s t0 in
    let ids = Array.of_list (List.concat_map fst (Array.to_list created)) in
    let lats =
      Array.of_list (List.concat_map snd (Array.to_list created))
    in
    Array.sort compare lats;
    let pct p =
      if Array.length lats = 0 then 0.
      else lats.(min (Array.length lats - 1)
                    (int_of_float (p *. float_of_int (Array.length lats))))
    in
    Printf.printf
      "load-test: created %d/%d sessions in %.3f s (%.0f/s; latency p50 \
       %.0f ns, p99 %.0f ns)\n%!"
      (Array.length ids) sessions create_s
      (float_of_int (Array.length ids) /. create_s)
      (pct 0.5) (pct 0.99)
      ;
    (* Phase 2: step every session, rounds times. *)
    let t1 = Obs.Clock.now_ns () in
    let step_body = Printf.sprintf "{\"steps\":%d}" steps in
    let stepped =
      Array.init clients (fun c ->
          Domain.spawn (fun () ->
              let total = ref 0 in
              for _ = 1 to rounds do
                let i = ref c in
                while !i < Array.length ids do
                  (match
                     Ewalk_serve.Client.request ~port ~meth:"POST"
                       ~path:(Printf.sprintf "/sessions/%s/step" ids.(!i))
                       ~body:step_body ()
                   with
                  | Ok { status = 200; _ } -> total := !total + steps
                  | Ok { status; _ } -> fail "step: status %d" status
                  | Error e -> fail "step: %s" e);
                  i := !i + clients
                done
              done;
              !total))
      |> Array.map Domain.join
    in
    let step_s = Obs.Clock.elapsed_s t1 in
    let total_steps = Array.fold_left ( + ) 0 stepped in
    Printf.printf
      "load-test: advanced %d steps across %d sessions in %.3f s (%.0f \
       steps/s over HTTP)\n%!"
      total_steps (Array.length ids) step_s
      (float_of_int total_steps /. step_s);
    (* Phase 3: report the daemon's own view. *)
    (match Ewalk_serve.Client.request ~port ~meth:"GET" ~path:"/metrics" () with
    | Ok { status = 200; body } ->
        let value_of name =
          String.split_on_char '\n' body
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ k; v ] when k = "ewalk_" ^ name -> Some v
                 | _ -> None)
          |> Option.value ~default:"?"
        in
        Printf.printf
          "load-test: daemon sessions=%s resident=%s hibernations=%s \
           rehydrations=%s serve_steps=%s\n%!"
          (value_of "sessions")
          (value_of "sessions_resident")
          (value_of "hibernations_total")
          (value_of "rehydrations_total")
          (value_of "serve_steps_total")
    | Ok { status; _ } -> fail "metrics: status %d" status
    | Error e -> fail "metrics: %s" e);
    if Atomic.get failures > 0 then begin
      Printf.eprintf "eproc load-test: %d request failures\n"
        (Atomic.get failures);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "load-test"
       ~doc:
         "Drive an eprocd daemon with many concurrent walk sessions and \
          report create latency and stepping throughput.")
    Term.(
      const run $ family_arg $ process_arg $ n_arg $ seed_arg $ walkers_arg
      $ compete_arg $ sessions_arg $ steps_arg $ rounds_arg $ clients_arg
      $ port_arg $ cap_arg)

let main =
  let doc = "Random walks which prefer unvisited edges (E-process) - reproduction CLI." in
  Cmd.group
    (Cmd.info "eproc" ~version:"1.0.0" ~doc)
    [
      list_cmd; experiment_cmd; graph_info_cmd; cover_cmd; trace_cmd;
      verify_trace_cmd; openmetrics_validate_cmd; check_oracle_cmd;
      checkpoint_inspect_cmd; spectra_cmd; euler_cmd; audit_cmd; report_cmd;
      bench_diff_cmd; runs_cmd; load_test_cmd;
    ]

(* Cmdliner cannot declare a one-letter long option, but "--n 1000" is how
   everyone writes the size flag; rewrite it to the short form "-n". *)
let normalize_arg a =
  if a = "--n" then "-n"
  else if String.length a > 4 && String.sub a 0 4 = "--n=" then
    "-n" ^ String.sub a 4 (String.length a - 4)
  else a

let () =
  (* Arm the durability-test fault spec before any subcommand runs, so the
     crash matrix can inject failures into every code path uniformly. *)
  (match Ewalk_resume.Faults.install_from_env () with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "eproc: %s: %s\n" Ewalk_resume.Faults.env_var e;
      exit 2);
  (* Likewise the crash flight recorder (EWALK_FLIGHT_DIR): any exit that
     does not come back through here — injected faults, SIGTERM, uncaught
     exceptions — dumps the last recorded events as a post-mortem. *)
  (match Obs.Flight.enable_from_env () with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "eproc: %s\n" e;
      exit 2);
  (* Every invocation mints its run id up front, before any subcommand can
     produce an artifact; resume legs re-derive with the parent folded in
     once the resumed artifact has been read. *)
  let argv = Array.map normalize_arg Sys.argv in
  (* The provenance browser must not add entries to the store it reads. *)
  if Array.length argv > 1 && argv.(1) = "runs" then
    Obs.Runlog.set_persist false;
  ignore
    (Obs.Runlog.begin_run
       ~config:(String.concat " " (Array.to_list (Array.sub argv 1 (max 0 (Array.length argv - 1)))))
       ()
      : Obs.Runlog.t);
  Obs.Runlog.add_meta_fields Obs.Throughput.summary_fields;
  (match Sys.getenv_opt "EWALK_FLIGHT_DIR" with
  | Some d when d <> "" -> Obs.Runlog.note_artifact ~key:"flight_dir" ~path:d
  | _ -> ());
  arm_run_outputs ();
  let code = Cmd.eval ~argv main in
  if code = 0 then Obs.Flight.disarm ();
  exit code
