(* perfbench: the repository's end-to-end benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --eprocd PATH --dir DIR --metrics NAME,NAME,...

   Normally started by run.py, which builds it and eprocd first and
   passes the metric names BENCHMARK.json lists for the mode.  Human-
   readable lines go to stdout; the last stdout line is one JSON object
   with the keys correct, attempted, failed and metrics.  With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the workload runs
   once untraced and once traced, followed by the layer ladder, and the
   metrics are the per-layer ones.  A named metric the run did not
   measure is a failure.  DIR receives scratch snapshots, eprocd state
   and the span file; it must be inside the checkout. *)

let layers = [ "graph"; "prng"; "core"; "obs"; "kernel"; "resume"; "serve" ]
let phases = [ "setup"; "cover"; "steps"; "step-latency"; "checkpoint" ]

(* -- workload sizes -------------------------------------------------------- *)

let default_seconds = 30

(* cover-1m's paper-scale work is fixed: five rounds of one cover, two
   mixes and 4000 advances, and a snapshot round trip in three of them. *)
let cover_1m ~traced : Local.cfg =
  let rounds = if traced then 1 else 5 in
  {
    n = 1_000_000;
    graphs = 1;
    setup_reps = (if traced then 1 else 3);
    rounds;
    covers = rounds;
    mix_reps = 2 * rounds;
    mix_steps = 200_000;
    latency_walks = 1;
    latency_samples = 4000 * rounds;
    checkpoints = (if traced then 1 else 3);
    shared_walk = true;
  }

(* trials-10k's rounds grow or shrink with --seconds, two for every three
   seconds; a round takes about 1.3 s.  The traced run keeps four, enough
   for every span. *)
let trials_10k ~seconds ~traced : Local.cfg =
  let rounds = if traced then 4 else max 4 (seconds * 2 / 3) in
  {
    n = 10_000;
    graphs = 64;
    setup_reps = (if traced then 1 else 5);
    rounds;
    covers = 32 * rounds;
    mix_reps = 3 * rounds;
    mix_steps = 240_000;
    latency_walks = 8;
    latency_samples = 2000 * rounds;
    checkpoints = 4 * rounds;
    shared_walk = false;
  }

(* -- runs ------------------------------------------------------------------ *)

let run_workload workload ~seed ~seconds ~traced ~dir =
  let cfg =
    if workload = "cover-1m" then cover_1m ~traced else trials_10k ~seconds ~traced
  in
  let o = Local.run cfg ~seed ~dir in
  Report.add "peak_rss_mib" ~unit_:"MiB" (Report.peak_rss_mib "self");
  o

let print_phases label ps =
  Printf.printf "%s phases:%s\n" label
    (String.concat ""
       (List.map (fun (p, (s, w)) -> Printf.sprintf " %s=%.3fs/%.0fw" p s w) ps))

let traced_run workload ~seed ~seconds ~exe ~dir ~out =
  (* One pass with every phase run untraced, then traced (Span.paired),
     then the ladder and the remaining rungs on the same fixture. *)
  Span.start ~run:(Printf.sprintf "%s-s%d-p%d" workload seed (Unix.getpid ()));
  Span.paired := true;
  let local = run_workload workload ~seed ~seconds ~traced:true ~dir in
  Span.paired := false;
  let base = Span.phase_totals ~traced:false in
  let traced = Span.phase_totals ~traced:true in
  let counts = Report.take_counts () in
  print_phases "untraced" base;
  print_phases "traced" traced;
  let fixture = local.Local.graphs.(0) in
  Span.call ~layer:"bench" "ladder" (fun () -> Ladder.run ~seed ~graph:fixture);
  Span.call ~layer:"bench" "serve rung" (fun () -> Served.run ~seed ~exe ~dir);
  let resume = local.Local.resume in
  Report.add "resume.write.s" ~unit_:"s" resume.Local.write_s;
  Report.add "resume.read.s" ~unit_:"s" resume.Local.read_s;
  Report.add "resume.bytes_per_vertex" ~unit_:"B" resume.Local.bytes_per_vertex;
  Report.add "resume.write.words_per_vertex" ~unit_:"words"
    resume.Local.write_words_per_vertex;
  Report.add "resume.read.words_per_vertex" ~unit_:"words"
    resume.Local.read_words_per_vertex;
  Span.stop ();
  let build = Local.build_span_name (Ewalk_graph.Graph.n fixture) in
  Report.add "graph.build.s" ~unit_:"s"
    (Report.median
       (Array.of_list
          (List.filter_map
             (fun (s : Span.span) ->
               if s.layer = "graph" && s.name = build then Some (s.t1 -. s.t0) else None)
             (Span.spans ()))));
  List.iter
    (fun l ->
      let t = Span.totals ~layer:l in
      Report.add (l ^ ".busy_s") ~unit_:"s" t.Span.busy_s;
      Report.add (l ^ ".self_s") ~unit_:"s" t.Span.self_s;
      Report.add (l ^ ".calls") ~unit_:"count" (float_of_int t.Span.calls);
      Report.add (l ^ ".failed") ~unit_:"count" (float_of_int t.Span.failures))
    layers;
  List.iter
    (fun p ->
      let get ps = Option.fold ~none:Float.nan ~some:fst (List.assoc_opt p ps) in
      Report.add ("trace.overhead." ^ p ^ "_s") ~unit_:"s" (get traced -. get base);
      Report.add ("count.words." ^ p) ~unit_:"words"
        (Option.fold ~none:Float.nan ~some:snd (List.assoc_opt p base)))
    phases;
  List.iter
    (fun (k, v) -> Report.add ("count." ^ k) ~unit_:"count" v)
    counts;
  let path = Filename.concat out (Printf.sprintf "spans-%s-s%d.jsonl" workload seed) in
  Span.write_jsonl path;
  Printf.printf "spans: %d written to %s\n" (List.length (Span.spans ())) path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref default_seconds in
  let trace = ref 0 and exe = ref "" and dir = ref "" and expected = ref [] in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cover-1m | trials-10k");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--eprocd", Arg.Set_string exe, "PATH built eprocd binary");
      ("--dir", Arg.Set_string dir, "DIR scratch directory inside the checkout");
      ( "--metrics",
        Arg.String (fun s -> expected := String.split_on_char ',' s),
        "NAMES comma-separated metrics to report" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --eprocd PATH --dir DIR \
     --metrics NAMES";
  if not (List.mem !workload [ "cover-1m"; "trials-10k" ]) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if
    !exe = "" || !dir = "" || !expected = [] || !seconds < 1 || !seed < 0
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline
      "perfbench: --eprocd, --dir, --metrics, --seconds >= 1, --seed >= 0 and --trace 0|1 \
       are required";
    exit 2
  end;
  let seconds = !seconds and out = !dir in
  let dir = Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let t0 = Span.now () in
  Fun.protect ~finally:(fun () -> Daemon.rm_rf dir) (fun () ->
      if !trace = 1 then traced_run !workload ~seed:!seed ~seconds ~exe:!exe ~dir ~out
      else begin
        ignore (run_workload !workload ~seed:!seed ~seconds ~traced:false ~dir);
        print_phases "untraced" (Span.phase_totals ~traced:false)
      end);
  let expected = !expected in
  Report.print_table ~expected;
  Printf.printf "wall: %.1f s\n" (Span.now () -. t0);
  exit (if Report.print_result ~expected then 0 else 1)
