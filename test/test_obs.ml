(* Tests for the observability layer: JSON serialisation, the metrics
   registry, trace sinks, progress reporting, and the Observe wiring that
   connects walk processes to them — including the trace-determinism
   guarantee (same seed, same graph => identical event stream and metrics
   snapshot). *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Rng = Ewalk_prng.Rng
module Json = Ewalk_obs.Json
module Metrics = Ewalk_obs.Metrics
module Trace = Ewalk_obs.Trace
module Progress = Ewalk_obs.Progress
module Export = Ewalk_obs.Export
module Flight = Ewalk_obs.Flight
module Replay = Ewalk_check.Replay
module Invariant = Ewalk_check.Invariant
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Cover = Ewalk.Cover
module Coverage = Ewalk.Coverage
module Observe = Ewalk.Observe
module Engine = Ewalk.Engine

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

(* -- Json -------------------------------------------------------------------- *)

let json_rendering () =
  Alcotest.(check string)
    "scalars" {|[null,true,42,1.5,"a\"b\\c\nd"]|}
    (Json.to_string
       (Json.List
          [
            Json.Null; Json.Bool true; Json.Int 42; Json.Float 1.5;
            Json.String "a\"b\\c\nd";
          ]));
  Alcotest.(check string)
    "object field order preserved" {|{"b":1,"a":2}|}
    (Json.to_string (Json.Obj [ ("b", Json.Int 1); ("a", Json.Int 2) ]));
  Alcotest.(check string)
    "integral float keeps decimal point" {|3.0|}
    (Json.to_string (Json.Float 3.0));
  Alcotest.(check string)
    "control chars escaped" {|"\u0001"|}
    (Json.to_string (Json.String "\001"))

let json_parser_roundtrip () =
  let v =
    Json.Obj
      [
        ("schema", Json.String "x/1");
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
        ("ok", Json.Bool false);
        ("name", Json.String "a\"b\\c\n\t");
        ("neg", Json.Int (-42));
        ("tiny", Json.Float 1e-9);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "parse (to_string v) = v" true (v = v')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  (* Standard JSON beyond our own output: whitespace, \u escapes (surrogate
     pair) decoded to UTF-8.  {|..|} keeps the backslashes literal, so the
     parser really sees the \u escapes. *)
  (match
     Json.of_string {|  { "a" : [ 1 , 2.0 ] , "u" : "\u0041\uD83D\uDE00" }  |}
   with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.0 ]); ("u", Json.String u) ]) ->
      Alcotest.(check string) "unicode escapes to UTF-8" "A\xf0\x9f\x98\x80" u
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Json.to_string other)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Integral numbers parse as Int, everything else as Float. *)
  Alcotest.(check bool) "3 is Int" true (Json.of_string "3" = Ok (Json.Int 3));
  Alcotest.(check bool) "3.0 is Float" true
    (Json.of_string "3.0" = Ok (Json.Float 3.0));
  Alcotest.(check bool) "3e2 is Float" true
    (Json.of_string "3e2" = Ok (Json.Float 300.0))

let json_parser_errors () =
  let rejects s =
    match Json.of_string s with
    | Ok v -> Alcotest.failf "accepted %S as %s" s (Json.to_string v)
    | Error _ -> ()
  in
  List.iter rejects
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2";
      "{\"a\" 1}"; "[1 2]"; "\"bad \\x escape\"";
    ]

let json_accessors () =
  let v = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 1.5) ] in
  Alcotest.(check bool) "member hit" true (Json.member "a" v = Some (Json.Int 3));
  Alcotest.(check bool) "member miss" true (Json.member "z" v = None);
  Alcotest.(check bool) "int as float" true
    (Option.bind (Json.member "a" v) Json.to_float_opt = Some 3.0);
  Alcotest.(check bool) "float not int" true
    (Option.bind (Json.member "b" v) Json.to_int_opt = None)

(* -- Benchstat --------------------------------------------------------------- *)

module Benchstat = Ewalk_obs.Benchstat

let benchstat_median_mad () =
  Alcotest.(check (float 1e-9)) "odd median" 3.0
    (Benchstat.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "even median interpolates" 2.5
    (Benchstat.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "mad" 1.0
    (Benchstat.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  Alcotest.(check (float 1e-9)) "mad of constant is 0" 0.0
    (Benchstat.mad [| 7.0; 7.0; 7.0 |]);
  Alcotest.check_raises "median of empty"
    (Invalid_argument "Benchstat.median: empty sample") (fun () ->
      ignore (Benchstat.median [||]))

let benchstat_measure () =
  let s = Benchstat.measure ~reps:12 ~min_rep_s:1e-4 (fun () -> ()) in
  Alcotest.(check int) "samples as requested" 12 s.Benchstat.samples;
  Alcotest.(check bool) "median positive" true (s.Benchstat.median_ns > 0.0);
  Alcotest.(check bool) "min <= median" true
    (s.Benchstat.min_ns <= s.Benchstat.median_ns);
  Alcotest.(check bool) "mad non-negative" true (s.Benchstat.mad_ns >= 0.0);
  (* reps floors at 10. *)
  let s = Benchstat.measure ~reps:3 ~min_rep_s:1e-5 (fun () -> ()) in
  Alcotest.(check int) "reps floored at 10" 10 s.Benchstat.samples

let benchstat_overhead_non_negative () =
  (* Identical kernels: true overhead 0; the paired estimator must report
     exactly 0 however the noise lands. *)
  let work () = ignore (Sys.opaque_identity (Array.make 128 0)) in
  for _ = 1 to 3 do
    let oh =
      Benchstat.paired_overhead ~reps:10 ~min_rep_s:1e-4 ~base:work
        ~instrumented:work ()
    in
    Alcotest.(check bool) "reported >= 0" true (oh.Benchstat.percent >= 0.0);
    Alcotest.(check bool) "noise >= 0" true (oh.Benchstat.noise_percent >= 0.0);
    Alcotest.(check int) "pairs floored at 10" 10 oh.Benchstat.pairs
  done;
  (* A genuinely slower instrumented side must show, not clamp to 0. *)
  let slow () =
    work ();
    for _ = 1 to 40 do
      work ()
    done
  in
  let oh =
    Benchstat.paired_overhead ~reps:10 ~min_rep_s:1e-4 ~base:work
      ~instrumented:slow ()
  in
  Alcotest.(check bool) "real overhead detected" true
    (oh.Benchstat.percent > 100.0)

(* -- Ledger ------------------------------------------------------------------ *)

module Ledger = Ewalk_obs.Ledger

let k ?(mad = 50.0) median =
  {
    Ledger.k_median_ns = median;
    k_mad_ns = mad;
    k_min_ns = median *. 0.9;
    k_samples = 10;
  }

let ledger_roundtrip () =
  let r =
    Ledger.make ~timestamp:123.5 ~git_rev:"abc1234" ~scale:"tiny" ~jobs:4
      ~kernels:[ ("b", k 2000.0); ("a", k 1000.0) ]
      ()
  in
  Alcotest.(check (list string))
    "kernels sorted" [ "a"; "b" ]
    (List.map fst r.Ledger.kernels);
  Alcotest.(check string) "schema" Ledger.schema_version r.Ledger.schema;
  match Ledger.of_json (Ledger.to_json r) with
  | Ok r' -> Alcotest.(check bool) "of_json (to_json r) = r" true (r = r')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let ledger_accepts_bench_core () =
  (* A BENCH_core.json v2 snapshot is a valid diff endpoint: same kernels
     table, different envelope. *)
  let s =
    {|{"schema":"ewalk-bench/2","scale":"tiny","jobs":1,"git_rev":"deadbee",
       "kernels":{"x":{"median_ns":10.0,"mad_ns":1.0,"min_ns":9.0,"samples":10}},
       "extra_field":null}|}
  in
  match Result.bind (Json.of_string s) Ledger.of_json with
  | Ok r ->
      Alcotest.(check string) "git rev carried" "deadbee" r.Ledger.git_rev;
      Alcotest.(check int) "one kernel" 1 (List.length r.Ledger.kernels)
  | Error e -> Alcotest.failf "BENCH_core.json rejected: %s" e

let ledger_append_read () =
  let path = Filename.temp_file "ewalk-ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r i =
        Ledger.make ~timestamp:(float_of_int i) ~git_rev:"r" ~scale:"tiny"
          ~jobs:1
          ~kernels:[ ("a", k (1000.0 +. float_of_int i)) ]
          ()
      in
      Ledger.append ~path (r 1);
      Ledger.append ~path (r 2);
      (match Ledger.read_history ~path with
      | Ok [ a; b ] ->
          Alcotest.(check (float 0.0)) "file order" 1.0 a.Ledger.timestamp;
          Alcotest.(check (float 0.0)) "second record" 2.0 b.Ledger.timestamp
      | Ok l -> Alcotest.failf "expected 2 records, got %d" (List.length l)
      | Error e -> Alcotest.failf "read_history: %s" e);
      (* load_record on a .jsonl path picks the last record. *)
      match Ledger.load_record path with
      | Ok r -> Alcotest.(check (float 0.0)) "last record" 2.0 r.Ledger.timestamp
      | Error e -> Alcotest.failf "load_record: %s" e)

let ledger_diff_gate () =
  let baseline =
    Ledger.make ~timestamp:0.0 ~git_rev:"base" ~scale:"tiny" ~jobs:1
      ~kernels:
        [
          ("steady", k ~mad:50.0 1000.0);
          ("noisy", k ~mad:400.0 1000.0);
          ("zero-mad", k ~mad:0.0 1000.0);
          ("base-only", k 1.0);
        ]
      ()
  in
  let candidate kernels =
    Ledger.make ~timestamp:1.0 ~git_rev:"cand" ~scale:"tiny" ~jobs:1 ~kernels
      ()
  in
  (* Within tolerance: +25% relative floor dominates 6 MADs of 50ns. *)
  let ok =
    Ledger.diff ~baseline
      (candidate
         [
           ("steady", k 1240.0); ("noisy", k 3000.0); ("zero-mad", k 1200.0);
           ("cand-only", k 1.0);
         ])
  in
  Alcotest.(check int) "intersection only" 3 (List.length ok);
  Alcotest.(check bool) "steady +24% ok" true
    (not (List.find (fun v -> v.Ledger.v_kernel = "steady") ok).Ledger.v_regressed);
  (* noisy: tolerance = max(6*400, 0.25*1000) = 2400 -> 3000 < 3400 ok *)
  Alcotest.(check bool) "noisy +200% within 6 MADs" true
    (not (List.find (fun v -> v.Ledger.v_kernel = "noisy") ok).Ledger.v_regressed);
  Alcotest.(check bool) "no regression" false (Ledger.any_regression ok);
  (* Beyond tolerance. *)
  let bad =
    Ledger.diff ~baseline
      (candidate
         [ ("steady", k 1400.0); ("noisy", k 1000.0); ("zero-mad", k 1260.0) ])
  in
  let v name = List.find (fun v -> v.Ledger.v_kernel = name) bad in
  Alcotest.(check bool) "steady +40% regressed" true
    (v "steady").Ledger.v_regressed;
  Alcotest.(check bool) "zero-mad uses relative floor" true
    (v "zero-mad").Ledger.v_regressed;
  Alcotest.(check bool) "any_regression" true (Ledger.any_regression bad);
  (* An improvement is never a regression, and tolerance scales with MADs. *)
  let improved = Ledger.diff ~baseline (candidate [ ("steady", k 100.0) ]) in
  Alcotest.(check bool) "faster is fine" false (Ledger.any_regression improved);
  let tight =
    Ledger.diff ~tolerance_mads:1.0 ~min_rel:0.01 ~baseline
      (candidate [ ("steady", k 1100.0) ])
  in
  Alcotest.(check bool) "tight tolerance flags +10%" true
    (Ledger.any_regression tight)

(* A crashed writer leaves a trailing partial line; the reader must keep
   every complete record and silently drop the torn tail.  A corrupt line
   that IS newline-terminated is still an error: that's damage, not a
   crash artefact. *)
let ledger_truncation_tolerated () =
  let path = Filename.temp_file "ewalk-ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r i =
        Ledger.make ~timestamp:(float_of_int i) ~git_rev:"r" ~scale:"tiny"
          ~jobs:1
          ~kernels:[ ("a", k 1000.0) ]
          ()
      in
      Ledger.append ~path (r 1);
      Ledger.append ~path (r 2);
      let text = In_channel.with_open_bin path In_channel.input_all in
      (* cut the file in the middle of the second record's line *)
      let first_nl = String.index text '\n' in
      let cut = first_nl + 1 + ((String.length text - first_nl) / 2) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub text 0 cut));
      (match Ledger.read_history ~path with
      | Ok [ a ] ->
          Alcotest.(check (float 0.0)) "surviving record" 1.0 a.Ledger.timestamp
      | Ok l ->
          Alcotest.failf "expected 1 surviving record, got %d" (List.length l)
      | Error e -> Alcotest.failf "truncated tail not tolerated: %s" e);
      (* a terminated-but-corrupt line is reported, not skipped *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub text 0 cut);
          Out_channel.output_string oc "\n");
      match Ledger.read_history ~path with
      | Ok _ -> Alcotest.fail "corrupt terminated line accepted"
      | Error _ -> ())

(* -- Metrics ----------------------------------------------------------------- *)

let metrics_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "steps" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check int) "same name, same counter" 5
    (Metrics.value (Metrics.counter m "steps"));
  let g = Metrics.gauge m "frontier" in
  Metrics.set g 7.5;
  Metrics.set_max g 3.0;
  Alcotest.(check (float 0.0)) "set_max keeps max" 7.5 (Metrics.gauge_value g);
  Metrics.set_max g 9.0;
  Alcotest.(check (float 0.0)) "set_max raises" 9.0 (Metrics.gauge_value g);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"steps\" already registered with a different kind")
    (fun () -> ignore (Metrics.gauge m "steps"))

let metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] m "lens" in
  List.iter (fun x -> Metrics.observe h x) [ 0.5; 1.0; 5.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 1006.5 (Metrics.hist_sum h);
  let json = Metrics.to_json_string m in
  (* Buckets are cumulative-style per-bucket counts: <=1: two (0.5, 1.0),
     (1,10]: one, (10,100]: none, +inf: one. *)
  Alcotest.(check bool)
    (Printf.sprintf "snapshot mentions buckets: %s" json)
    true
    (let expected =
       {|"buckets":[{"le":1.0,"count":2},{"le":10.0,"count":1},{"le":100.0,"count":0},{"le":"+inf","count":1}]|}
     in
     (* substring check *)
     let rec contains i =
       if i + String.length expected > String.length json then false
       else String.sub json i (String.length expected) = expected || contains (i + 1)
     in
     contains 0)

let metrics_snapshot_deterministic () =
  let build () =
    let m = Metrics.create () in
    Metrics.add (Metrics.counter m "b") 2;
    Metrics.incr (Metrics.counter m "a");
    Metrics.set (Metrics.gauge m "g") 0.25;
    Metrics.observe (Metrics.histogram m "h") 3.0;
    Metrics.to_json_string m
  in
  Alcotest.(check string) "same ops, same snapshot" (build ()) (build ())

(* Buckets are validated (and used) only when the name is new: retrieval
   with any garbage array is ignored and returns the already-registered
   histogram — the contract sweeps rely on when every trial re-registers
   the same instruments. *)
let metrics_histogram_first_registration_only () =
  let m = Metrics.create () in
  (match Metrics.histogram ~buckets:[| 5.0; 1.0 |] m "bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "descending buckets accepted on first registration");
  (match Metrics.histogram ~buckets:[||] m "empty" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty buckets accepted on first registration");
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] m "lens" in
  Metrics.observe h 1.5;
  let h' = Metrics.histogram ~buckets:[| 5.0; 1.0 |] m "lens" in
  Alcotest.(check bool) "retrieval ignores (even invalid) buckets" true
    (Metrics.hist_bounds h' = [| 1.0; 2.0; 4.0 |]);
  Metrics.observe h' 3.0;
  Alcotest.(check int) "same histogram behind both handles" 2
    (Metrics.hist_count h)

let metrics_set_at_deterministic () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "last_trial" in
  Metrics.set_at g ~seq:3 30.0;
  Metrics.set_at g ~seq:1 10.0;
  Alcotest.(check (float 0.0)) "lower seq ignored" 30.0 (Metrics.gauge_value g);
  Metrics.set_at g ~seq:3 33.0;
  Alcotest.(check (float 0.0)) "equal seq overwrites (same trial re-set)" 33.0
    (Metrics.gauge_value g);
  Metrics.set_at g ~seq:7 70.0;
  Alcotest.(check (float 0.0)) "higher seq wins" 70.0 (Metrics.gauge_value g);
  Metrics.set g 99.0;
  Alcotest.(check (float 0.0)) "plain set never displaces set_at" 70.0
    (Metrics.gauge_value g);
  let p = Metrics.gauge m "plain" in
  Metrics.set p 1.0;
  Metrics.set p 2.0;
  Alcotest.(check (float 0.0)) "plain set replaces plain set" 2.0
    (Metrics.gauge_value p);
  Metrics.set_at p ~seq:min_int 5.0;
  Alcotest.(check (float 0.0)) "any set_at displaces plain" 5.0
    (Metrics.gauge_value p);
  (* The deterministic-sweep shape: writes arriving in scrambled lane
     order resolve to the highest trial index, whatever ran last. *)
  let sweep = Metrics.gauge m "sweep" in
  List.iter
    (fun i -> Metrics.set_at sweep ~seq:i (float_of_int (10 * i)))
    [ 2; 0; 4; 1; 3 ];
  Alcotest.(check (float 0.0)) "last trial by index, not by arrival" 40.0
    (Metrics.gauge_value sweep)

(* -- Trace sinks ------------------------------------------------------------- *)

let ev_step i =
  Trace.Step { step = i; vertex = i; edge = i; blue = i mod 2 = 0 }

let trace_ring () =
  let r = Trace.ring ~capacity:3 in
  let sink = Trace.ring_sink r in
  for i = 1 to 5 do
    Trace.emit sink (ev_step i)
  done;
  Alcotest.(check int) "length capped" 3 (Trace.ring_length r);
  Alcotest.(check int) "seen counts all" 5 (Trace.ring_seen r);
  let steps =
    List.map
      (function Trace.Step { step; _ } -> step | _ -> -1)
      (Trace.ring_contents r)
  in
  Alcotest.(check (list int)) "keeps most recent, oldest first" [ 3; 4; 5 ] steps

let trace_null_and_filter () =
  Alcotest.(check bool) "null is null" true (Trace.is_null Trace.null);
  Alcotest.(check bool) "filter of null stays null" true
    (Trace.is_null (Trace.filter (fun _ -> true) Trace.null));
  let r = Trace.ring ~capacity:10 in
  let sink =
    Trace.filter
      (function Trace.Step _ -> false | _ -> true)
      (Trace.ring_sink r)
  in
  Trace.emit sink (ev_step 1);
  Trace.emit sink (Trace.Run_end { steps = 1; covered = false });
  Alcotest.(check int) "steps filtered out" 1 (Trace.ring_length r)

let trace_jsonl_format () =
  Alcotest.(check string)
    "step line"
    {|{"type":"step","step":3,"vertex":7,"edge":9,"blue":true}|}
    (Trace.event_to_string
       (Trace.Step { step = 3; vertex = 7; edge = 9; blue = true }));
  Alcotest.(check string)
    "milestone line"
    {|{"type":"milestone","step":10,"kind":"vertices","percent":50,"count":5,"total":10}|}
    (Trace.event_to_string
       (Trace.Milestone
          { step = 10; kind = Trace.Vertices; percent = 50; count = 5; total = 10 }))

(* event_of_string must invert event_to_string for every variant, and name
   the offending field on malformed input. *)
let trace_event_parser_roundtrip () =
  let events =
    [
      Trace.Run_start { name = "e-process(uar)"; n = 10; m = 20; start = 0 };
      Trace.Step { step = 1; vertex = 3; edge = 7; blue = true };
      Trace.Step { step = 2; vertex = 0; edge = -1; blue = false };
      Trace.Phase { step = 0; kind = Trace.Blue; vertex = 0 };
      Trace.Phase { step = 9; kind = Trace.Red; vertex = 4 };
      Trace.Milestone
        { step = 5; kind = Trace.Edges; percent = 25; count = 5; total = 20 };
      Trace.Run_end { steps = 42; covered = true };
    ]
  in
  List.iter
    (fun ev ->
      let line = Trace.event_to_string ev in
      match Trace.event_of_string line with
      | Ok ev' ->
          Alcotest.(check bool) ("roundtrip: " ^ line) true (ev = ev')
      | Error e -> Alcotest.failf "parse %s: %s" line e)
    events;
  let expect_error what line =
    match Trace.event_of_string line with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  expect_error "unknown type" {|{"type":"warp","step":1}|};
  expect_error "missing field" {|{"type":"step","step":1,"vertex":2}|};
  expect_error "ill-typed field"
    {|{"type":"step","step":"one","vertex":2,"edge":3,"blue":true}|};
  expect_error "no type" {|{"step":1}|};
  expect_error "not json" "step 1 vertex 2"

(* A full traced run serialised to JSONL and parsed back reproduces the
   run's observable facts: step count, milestone count, and cover time. *)
let trace_full_run_roundtrip () =
  let g = Gen_regular.random_regular_connected (Rng.create ~seed:8 ()) 30 4 in
  let events = ref [] in
  let sink = Trace.of_fun (fun ev -> events := ev :: !events) in
  let obs = Observe.create ~sink () in
  let t = Eprocess.create g (Rng.create ~seed:8 ()) ~start:0 in
  Observe.attach obs t;
  let p = Observe.instrument obs (Eprocess.process t) in
  let cover =
    match Cover.run_until_vertex_cover ~cap:100_000 p with
    | Some c -> c
    | None -> Alcotest.fail "walk hit its cap"
  in
  Observe.finish obs p;
  let parsed =
    List.rev_map
      (fun ev ->
        match Trace.event_of_string (Trace.event_to_string ev) with
        | Ok e -> e
        | Error e -> Alcotest.failf "reparse: %s" e)
      !events
  in
  let steps =
    List.length
      (List.filter (function Trace.Step _ -> true | _ -> false) parsed)
  in
  let milestones =
    List.filter (function Trace.Milestone _ -> true | _ -> false) parsed
  in
  Alcotest.(check int) "step events" (Eprocess.steps t) steps;
  Alcotest.(check bool) "milestones present" true (List.length milestones >= 4);
  let cover_milestone =
    List.find_map
      (function
        | Trace.Milestone { step; kind = Trace.Vertices; percent = 100; _ } ->
            Some step
        | _ -> None)
      parsed
  in
  Alcotest.(check (option int)) "cover time survives the round-trip"
    (Some cover) cover_milestone;
  match List.rev parsed with
  | Trace.Run_end { steps = end_steps; covered } :: _ ->
      Alcotest.(check int) "run_end steps" (Eprocess.steps t) end_steps;
      Alcotest.(check bool) "run_end covered" true covered
  | _ -> Alcotest.fail "stream does not end with run_end"

(* -- Progress -------------------------------------------------------------- *)

let progress_reporter () =
  let path = Filename.temp_file "ewalk_progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let p =
        Progress.create ~out:oc ~interval:0.0 ~total:4 ~label:"sweep" ()
      in
      Progress.tick p;
      Progress.tick ~amount:3 p;
      Progress.finish p;
      Progress.finish p;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "two ticks + one finish" 3 (List.length lines);
      Alcotest.(check bool) "mentions label" true
        (List.for_all
           (fun l -> String.length l >= 5 && String.sub l 0 5 = "sweep")
           lines))

(* -- Observe wiring ---------------------------------------------------------- *)

let observed_eprocess_run ?(ring_capacity = 200_000) ~seed ~n () =
  let rng = Rng.create ~seed () in
  let g = Gen_regular.cycle_union rng n 2 in
  let walk_rng = Rng.create ~seed:(seed + 1) () in
  let t = Eprocess.create g walk_rng ~start:0 in
  let metrics = Metrics.create () in
  let r = Trace.ring ~capacity:ring_capacity in
  let obs = Observe.create ~metrics ~sink:(Trace.ring_sink r) () in
  Observe.attach obs t;
  let p = Observe.instrument obs (Eprocess.process t) in
  let cover = Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) p in
  Observe.finish obs p;
  (t, metrics, r, cover)

let observe_metrics_match_process () =
  let t, metrics, _, cover = observed_eprocess_run ~seed:42 ~n:60 () in
  Alcotest.(check bool) "covered" true (cover <> None);
  Alcotest.(check int) "blue counter = blue_steps" (Eprocess.blue_steps t)
    (Metrics.value (Metrics.counter metrics "blue_steps"));
  Alcotest.(check int) "red counter = red_steps" (Eprocess.red_steps t)
    (Metrics.value (Metrics.counter metrics "red_steps"));
  Alcotest.(check int) "steps counter = steps" (Eprocess.steps t)
    (Metrics.value (Metrics.counter metrics "steps"));
  Alcotest.(check (float 0.0)) "vertex coverage complete" 1.0
    (Metrics.gauge_value (Metrics.gauge metrics "coverage_vertex_fraction"))

let observe_event_stream_shape () =
  let _, _, r, _ = observed_eprocess_run ~seed:7 ~n:40 () in
  let events = Trace.ring_contents r in
  (match events with
  | Trace.Run_start { n; m; start; _ } :: _ ->
      Alcotest.(check int) "n" 40 n;
      Alcotest.(check int) "m" 80 m;
      Alcotest.(check int) "start" 0 start
  | _ -> Alcotest.fail "first event must be run_start");
  (match List.rev events with
  | Trace.Run_end { covered; _ } :: _ ->
      Alcotest.(check bool) "covered" true covered
  | _ -> Alcotest.fail "last event must be run_end");
  let milestone_pcts =
    List.filter_map
      (function
        | Trace.Milestone { kind = Trace.Vertices; percent; _ } -> Some percent
        | _ -> None)
      events
  in
  Alcotest.(check (list int)) "vertex milestones in order" [ 25; 50; 75; 100 ]
    milestone_pcts;
  (* Milestone step indices agree with what Coverage recorded. *)
  let phase_events =
    List.filter (function Trace.Phase _ -> true | _ -> false) events
  in
  Alcotest.(check bool) "has phase events" true (List.length phase_events >= 1);
  let steps =
    List.filter_map
      (function Trace.Step { step; _ } -> Some step | _ -> None)
      events
  in
  let rec consecutive i = function
    | [] -> true
    | s :: rest -> s = i && consecutive (i + 1) rest
  in
  Alcotest.(check bool) "step events numbered 1..k" true (consecutive 1 steps)

let observe_noop_attaches_nothing () =
  let g = Gen_classic.cycle 10 in
  let t = Eprocess.create g (Rng.create ~seed:5 ()) ~start:0 in
  let obs = Observe.create () in
  Alcotest.(check bool) "noop bundle" true (Observe.is_noop obs);
  Observe.attach obs t;
  let p = Observe.instrument obs (Eprocess.process t) in
  (* A noop bundle must leave the process untouched - same closure. *)
  Cover.run_steps p 5;
  Alcotest.(check int) "still steps" 5 (Eprocess.steps t)

let observe_srw_attach () =
  let g = Gen_classic.cycle 12 in
  let t = Srw.create g (Rng.create ~seed:9 ()) ~start:0 in
  let metrics = Metrics.create () in
  let obs = Observe.create ~metrics () in
  Observe.attach obs t;
  let p = Observe.instrument obs (Srw.process t) in
  Cover.run_steps p 100;
  Observe.finish obs p;
  Alcotest.(check int) "all srw steps are red" 100
    (Metrics.value (Metrics.counter metrics "red_steps"));
  Alcotest.(check int) "no blue steps" 0
    (Metrics.value (Metrics.counter metrics "blue_steps"))

(* Each walker keeps its own open phase, measured in its own steps: at
   W = 4, cooperating and competing, no phase has length 0, every phase
   but each walker's first closes one ([count] = phases - W), and the
   closed lengths add up to the walker steps minus each walker's open
   phase.  The phase openings come from the run's own [Phase] events,
   read on a second observer with the walker's step count at the
   boundary. *)
let observe_phase_lengths_per_walker () =
  let w = 4 in
  List.iter
    (fun (mode, label) ->
      let rng = Rng.create ~seed:31 () in
      let g = Gen_regular.random_regular_connected rng 300 3 in
      let e = Engine.build ~mode Engine.E_uar g rng ~walkers:w in
      let metrics = Metrics.create () in
      let obs = Observe.create ~metrics () in
      Observe.attach obs e;
      let phases = ref 0 and opened = Array.make w (-1) in
      Engine.set_observer e
        (Some
           (fun ~walker ev ->
             match ev with
             | Trace.Phase _ ->
                 incr phases;
                 opened.(walker) <- Engine.walker_steps e walker
             | _ -> ()));
      Engine.run_steps e 12_000;
      Observe.flush obs;
      let hist field =
        let snap = Metrics.snapshot metrics in
        match
          Option.bind (Json.member "histograms" snap) (fun h ->
              Option.bind (Json.member "phase_length" h) (Json.member field))
        with
        | Some v -> Option.get (Json.to_float_opt v)
        | None -> Alcotest.failf "%s: phase_length %s missing" label field
      in
      let open_len = ref 0 and walker_steps = ref 0 in
      for i = 0 to w - 1 do
        Alcotest.(check bool) (label ^ ": every walker opened a phase") true
          (opened.(i) >= 0);
        walker_steps := !walker_steps + Engine.walker_steps e i;
        open_len := !open_len + (Engine.walker_steps e i - opened.(i))
      done;
      Alcotest.(check bool) (label ^ ": no phase of length 0") true
        (hist "min" >= 1.0);
      Alcotest.(check int) (label ^ ": count = phases - W") (!phases - w)
        (int_of_float (hist "count"));
      Alcotest.(check int)
        (label ^ ": sum = walker steps - open phases")
        (!walker_steps - !open_len)
        (int_of_float (hist "sum")))
    [ (Engine.Cooperating, "cooperating"); (Engine.Competing, "competing") ]

(* One metrics path: the same walk observed with a null sink and with a
   live one publishes byte-identical snapshots, for every engine process
   kind, one and four walkers, both disciplines.  The walks run past one
   drain interval. *)
let observe_null_and_live_sinks_agree () =
  let snapshot proc ~mode ~walkers sink =
    let rng = Rng.create ~seed:17 () in
    let g = Gen_regular.random_regular_connected rng 200 3 in
    let e = Engine.build ~mode proc g rng ~walkers in
    let metrics = Metrics.create () in
    let obs = Observe.create ~metrics ~sink () in
    Observe.attach obs e;
    (match mode with
    | Engine.Cooperating ->
        let p = Observe.instrument obs (Engine.process e) in
        Cover.run_steps p 10_000;
        Observe.finish obs p
    | Engine.Competing ->
        Engine.run_rounds e (10_000 / walkers);
        Observe.flush obs);
    Metrics.to_json_string metrics
  in
  List.iter
    (fun (proc, pname) ->
      List.iter
        (fun walkers ->
          List.iter
            (fun (mode, mname) ->
              let events = ref 0 in
              let live = Trace.of_fun (fun _ -> incr events) in
              let null = snapshot proc ~mode ~walkers Trace.null in
              Alcotest.(check string)
                (Printf.sprintf "%s w=%d %s" pname walkers mname)
                null
                (snapshot proc ~mode ~walkers live);
              Alcotest.(check bool) "the live sink saw the walk" true
                (!events >= 10_000))
            [
              (Engine.Cooperating, "cooperating");
              (Engine.Competing, "competing");
            ])
        [ 1; 4 ])
    [
      (Engine.E_uar, "e-process"); (Engine.Srw, "srw"); (Engine.Rotor, "rotor");
    ]

(* A competing engine drains through its burst tick: a registry read
   part-way through [run_until_first_cover] already sees blue steps and
   total steps, and the tick moves no draw. *)
let observe_competing_tick_drains () =
  let run ~tick_on =
    let rng = Rng.create ~seed:23 () in
    let g = Gen_regular.random_regular_connected rng 5000 4 in
    let e = Engine.build ~mode:Engine.Competing Engine.E_uar g rng ~walkers:4 in
    let metrics = Metrics.create () in
    let obs = Observe.create ~metrics () in
    Observe.attach obs e;
    let read name = Metrics.value (Metrics.counter metrics name) in
    let mid = ref None in
    let tick =
      if not tick_on then None
      else begin
        let drain = Observe.ticker obs ~steps:(fun () -> Engine.steps e) in
        Some
          (fun () ->
            drain ();
            if !mid = None && Engine.steps e >= 2 * 4096 then
              mid := Some (read "blue_steps", read "steps"))
      end
    in
    let first = Engine.run_until_first_cover ?tick e in
    Observe.flush obs;
    (first, Engine.positions e, Engine.steps e, !mid, read "steps")
  in
  let first0, pos0, steps0, _, _ = run ~tick_on:false in
  let first1, pos1, steps1, mid, steps_counter = run ~tick_on:true in
  Alcotest.(check (option (pair int int))) "same first cover" first0 first1;
  Alcotest.(check (array int)) "same positions" pos0 pos1;
  Alcotest.(check int) "same steps" steps0 steps1;
  Alcotest.(check int) "steps counter exact after flush" steps1 steps_counter;
  match mid with
  | None -> Alcotest.fail "the run ended before the mid-run read"
  | Some (blue, steps) ->
      Alcotest.(check bool) "mid-run blue_steps > 0" true (blue > 0);
      Alcotest.(check bool) "mid-run steps within the run" true
        (steps >= 4096 && steps < steps1)

(* Observation holds no state beyond its view: a registry dropped after
   [finish] is garbage, so observing many short walks, each through a
   fresh registry, leaves the live heap flat. *)
let observe_fresh_registries_bounded () =
  let g = Gen_classic.cycle 64 in
  let walk () =
    let t = Eprocess.create g (Rng.create ~seed:3 ()) ~start:0 in
    let obs = Observe.create ~metrics:(Metrics.create ()) () in
    Observe.attach obs t;
    let p = Observe.instrument obs (Eprocess.process t) in
    Cover.run_steps p 100;
    Observe.finish obs p
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for _ = 1 to 200 do
    walk ()
  done;
  let before = live_words () in
  for _ = 1 to 1_800 do
    walk ()
  done;
  let grown = live_words () - before in
  if grown > 50_000 then
    Alcotest.failf "1800 observed walks grew the live heap by %d words" grown

(* -- Export ------------------------------------------------------------------- *)

let export_render_validates () =
  let _, metrics, _, _ = observed_eprocess_run ~seed:11 ~n:50 () in
  let body = Export.render metrics in
  (match Export.validate body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rendered exposition rejected: %s" e);
  Alcotest.(check bool) "mentions the steps family" true
    (contains body "ewalk_steps_total");
  Alcotest.(check bool) "mentions coverage gauge" true
    (contains body "ewalk_coverage_vertex_fraction");
  (* And the validator really rejects malformed expositions. *)
  let rejects what s =
    match Export.validate s with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  rejects "garbage line" "garbage{ 1\n# EOF\n";
  rejects "missing # EOF" "# TYPE ewalk_x counter\newalk_x_total 1\n";
  rejects "undeclared family" "ewalk_mystery_total 1\n# EOF\n"

(* -- Flight recorder ---------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* Full circle: a wrapped sink records into the per-domain ring; the ring
   wraps (capacity far below the walk's event count); the dump opens with
   the synthetic resumed-run prologue; and the JSONL file verifies as a
   truncated resumed tail — exactly what [eproc verify-trace --flight]
   does with a crash post-mortem.

   This is the only [Flight.enable] in this binary: the recorder's
   configuration is process-global set-once, and the trailing [disarm]
   keeps the [at_exit] hook from dumping on normal test exit. *)
let flight_dump_replays () =
  let dir = Filename.temp_file "ewalk_flight" "" in
  Sys.remove dir;
  Flight.enable ~capacity:32 ~dir ();
  Fun.protect ~finally:(fun () -> Flight.disarm ())
  @@ fun () ->
  Alcotest.(check bool) "enabled" true (Flight.enabled ());
  let rng = Rng.create ~seed:21 () in
  let g = Gen_regular.cycle_union rng 60 2 in
  let t = Eprocess.create g (Rng.create ~seed:22 ()) ~start:0 in
  let sink = Flight.wrap Trace.null in
  Alcotest.(check bool) "wrap disables ambient recording" false
    (Flight.ambient_active ());
  let obs = Observe.create ~sink () in
  Observe.attach obs t;
  let p = Observe.instrument obs (Eprocess.process t) in
  (match Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) p with
  | Some _ -> ()
  | None -> Alcotest.fail "walk hit its cap");
  (* No [Observe.finish]: the stream ends mid-run, like a crash would. *)
  let paths = Flight.dump_now () in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) paths;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let primary =
    match paths with
    | p :: _ -> p
    | [] -> Alcotest.fail "dump_now wrote nothing"
  in
  Alcotest.(check string) "primary dump name" "flight.jsonl"
    (Filename.basename primary);
  let events =
    List.map
      (fun line ->
        match Trace.event_of_string line with
        | Ok ev -> ev
        | Error e -> Alcotest.failf "unparseable dump line %S: %s" line e)
      (read_lines primary)
  in
  Alcotest.(check bool) "ring wrapped (dump shorter than the walk)" true
    (List.length events < Eprocess.steps t);
  (match events with
  | Trace.Run_start _ :: Trace.Resume _ :: _ -> ()
  | _ -> Alcotest.fail "wrapped dump must open with run_start + resume");
  let v = Replay.create g in
  List.iter
    (fun ev ->
      match Replay.feed v ev with
      | Ok () -> ()
      | Error viol ->
          Alcotest.failf "dump violates invariants: %s"
            (Invariant.violation_to_string viol))
    events;
  match Replay.finish_partial v with
  | Ok s ->
      Alcotest.(check bool) "verified as resumed tail" true s.Replay.resumed;
      Alcotest.(check bool) "truncated, as a crash dump is" false
        s.Replay.complete;
      Alcotest.(check bool) "carried per-step events" true s.Replay.has_steps
  | Error viol ->
      Alcotest.failf "truncated dump rejected: %s"
        (Invariant.violation_to_string viol)

(* -- Determinism (same seed + graph => identical telemetry) ------------------- *)

let jsonl_of_run ~seed ~n =
  let buf = Buffer.create 4096 in
  let sink =
    Trace.of_fun (fun ev ->
        Buffer.add_string buf (Trace.event_to_string ev);
        Buffer.add_char buf '\n')
  in
  let rng = Rng.create ~seed () in
  let g = Gen_regular.cycle_union rng n 2 in
  let t = Eprocess.create g (Rng.create ~seed:(seed + 1) ()) ~start:0 in
  let metrics = Metrics.create () in
  let obs = Observe.create ~metrics ~sink () in
  Observe.attach obs t;
  let p = Observe.instrument obs (Eprocess.process t) in
  ignore (Cover.run_until_vertex_cover ~cap:(Cover.default_cap g) p);
  Observe.finish obs p;
  (Buffer.contents buf, Metrics.to_json_string metrics)

let trace_determinism () =
  let stream1, snap1 = jsonl_of_run ~seed:123 ~n:50 in
  let stream2, snap2 = jsonl_of_run ~seed:123 ~n:50 in
  Alcotest.(check bool) "stream non-trivial" true
    (String.length stream1 > 200);
  Alcotest.(check string) "identical JSONL streams" stream1 stream2;
  Alcotest.(check string) "identical metrics snapshots" snap1 snap2;
  (* And a different seed really changes the stream. *)
  let stream3, _ = jsonl_of_run ~seed:124 ~n:50 in
  Alcotest.(check bool) "different seed, different stream" true
    (stream1 <> stream3)

(* -- Runlog ------------------------------------------------------------------ *)

module Runlog = Ewalk_obs.Runlog
module Throughput = Ewalk_obs.Throughput

let runlog_derive_deterministic () =
  let a = Runlog.derive ~config:"trace -n 100" ~epoch_ns:42 () in
  let b = Runlog.derive ~config:"trace -n 100" ~epoch_ns:42 () in
  Alcotest.(check string) "same inputs, same id" a b;
  Alcotest.(check bool) "well-formed" true (Runlog.validate_id a);
  Alcotest.(check bool) "epoch changes id" true
    (a <> Runlog.derive ~config:"trace -n 100" ~epoch_ns:43 ());
  Alcotest.(check bool) "config changes id" true
    (a <> Runlog.derive ~config:"trace -n 101" ~epoch_ns:42 ());
  let child = Runlog.derive ~config:"trace -n 100" ~epoch_ns:42 ~parent:a () in
  Alcotest.(check bool) "parent changes id" true (a <> child);
  let legacy = Runlog.synthesize_legacy "payload-bytes" in
  Alcotest.(check bool) "legacy id well-formed" true (Runlog.validate_id legacy);
  Alcotest.(check string) "legacy id stable" legacy
    (Runlog.synthesize_legacy "payload-bytes")

let runlog_validate_id () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "validate %S" s)
        want (Runlog.validate_id s))
    [
      ("r0123456789abcdef", true);
      ("r0123456789ABCDEF", false);
      ("x0123456789abcdef", false);
      ("r0123456789abcde", false);
      ("r0123456789abcdef0", false);
      ("", false);
    ]

(* -- Run_info trace event ----------------------------------------------------- *)

let trace_run_info_roundtrip () =
  let no_parent =
    Trace.Run_info { run_id = "r0123456789abcdef"; parent_run_id = None }
  in
  (match Trace.event_of_string (Trace.event_to_string no_parent) with
  | Ok e -> Alcotest.(check bool) "no-parent roundtrips" true (e = no_parent)
  | Error e -> Alcotest.fail e);
  let with_parent =
    Trace.Run_info
      {
        run_id = "raaaaaaaaaaaaaaaa";
        parent_run_id = Some "rbbbbbbbbbbbbbbbb";
      }
  in
  match Trace.event_of_string (Trace.event_to_string with_parent) with
  | Ok e -> Alcotest.(check bool) "with-parent roundtrips" true (e = with_parent)
  | Error e -> Alcotest.fail e

let trace_event_of_line_error_shape () =
  (match Trace.event_of_line ~line:7 "{nope" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (String.length e >= 7 && String.sub e 0 7 = "line 7:"));
  match
    Trace.event_of_line ~line:9
      (Trace.event_to_string (Trace.Resume { step = 3 }))
  with
  | Ok (Trace.Resume { step }) -> Alcotest.(check int) "valid line parses" 3 step
  | _ -> Alcotest.fail "valid line rejected"

(* -- Throughput --------------------------------------------------------------- *)

let throughput_pure_rates () =
  let s = 1_000_000_000 in
  let pairs = [ (0, 0); (4096, s); (12288, 2 * s) ] in
  (match Throughput.lifetime_rate_of_pairs pairs with
  | Some r -> Alcotest.(check (float 1.0)) "lifetime first-to-last" 6144.0 r
  | None -> Alcotest.fail "no lifetime rate");
  (* A window covering only the last interval reads the recent rate, not
     the lifetime average. *)
  (match
     Throughput.windowed_rate_of_pairs ~now_ns:(2 * s) ~window_ns:(3 * s / 2)
       pairs
   with
  | Some r -> Alcotest.(check (float 1.0)) "windowed reads recent" 8192.0 r
  | None -> Alcotest.fail "no windowed rate");
  (* Polling long after the last sample: falls back to the most recent
     adjacent pair rather than reporting nothing. *)
  (match
     Throughput.windowed_rate_of_pairs ~now_ns:(60 * s) ~window_ns:s pairs
   with
  | Some r -> Alcotest.(check (float 1.0)) "stalled poll falls back" 8192.0 r
  | None -> Alcotest.fail "stalled fallback missing");
  Alcotest.(check (list (float 1.0)))
    "adjacent rates" [ 4096.0; 8192.0 ]
    (Throughput.rates_of_pairs pairs);
  Alcotest.(check bool) "empty series" true
    (Throughput.lifetime_rate_of_pairs [] = None);
  Alcotest.(check bool) "single sample" true
    (Throughput.windowed_rate_of_pairs ~now_ns:5 ~window_ns:5 [ (1, 1) ]
    = None)

let throughput_sampler_basic () =
  Throughput.reset ();
  Fun.protect ~finally:Throughput.reset @@ fun () ->
  Throughput.add 4096;
  Throughput.add 4096;
  Alcotest.(check int) "total accumulates" 8192 (Throughput.total_steps ());
  (* The first add is always retained (no prior sample to throttle
     against); the second lands inside the 10 ms min gap. *)
  Alcotest.(check bool) "first sample retained" true
    (List.length (Throughput.samples ()) >= 1);
  let fields = Throughput.summary_fields () in
  Alcotest.(check bool) "summary carries steps_total" true
    (List.assoc_opt "steps_total" fields = Some (Json.Int 8192));
  Alcotest.(check bool) "summary carries sample count" true
    (List.mem_assoc "throughput_samples" fields)

(* -- Ledger provenance and rate kernels --------------------------------------- *)

let ledger_run_id_roundtrip () =
  let k =
    { Ledger.k_median_ns = 10.0; k_mad_ns = 1.0; k_min_ns = 9.0; k_samples = 5 }
  in
  let r =
    Ledger.make ~timestamp:1.0 ~git_rev:"aaa" ~run_id:"r0123456789abcdef"
      ~scale:"tiny" ~jobs:1
      ~kernels:[ ("x", k) ]
      ()
  in
  (match Ledger.of_json (Ledger.to_json r) with
  | Ok r2 ->
      Alcotest.(check string) "run_id survives" "r0123456789abcdef"
        r2.Ledger.run_id
  | Error e -> Alcotest.fail e);
  (* Legacy records (no run_id) still load, with "" — and an empty id is
     omitted from the JSON so pre-provenance goldens stay stable. *)
  let legacy =
    Ledger.make ~timestamp:1.0 ~git_rev:"aaa" ~run_id:"" ~scale:"tiny" ~jobs:1
      ~kernels:[ ("x", k) ]
      ()
  in
  Alcotest.(check bool) "empty id omitted from JSON" false
    (contains (Json.to_string (Ledger.to_json legacy)) "run_id");
  match Ledger.of_json (Ledger.to_json legacy) with
  | Ok r2 -> Alcotest.(check string) "legacy loads with empty id" "" r2.Ledger.run_id
  | Error e -> Alcotest.fail e

let ledger_rate_gate () =
  Alcotest.(check bool) "rate kernel detected" true
    (Ledger.higher_is_better "headline:steps_per_second_eprocess");
  Alcotest.(check bool) "latency kernel not" false
    (Ledger.higher_is_better "fig1:eprocess-10k-steps");
  let k median =
    {
      Ledger.k_median_ns = median;
      k_mad_ns = 10.0;
      k_min_ns = median;
      k_samples = 10;
    }
  in
  let record v =
    Ledger.make ~timestamp:1.0 ~git_rev:"aaa" ~scale:"tiny" ~jobs:1
      ~kernels:[ ("headline:steps_per_second_x", k v) ]
      ()
  in
  let regressed cand =
    Ledger.any_regression
      (Ledger.diff ~tolerance_mads:6.0 ~min_rel:0.25 ~baseline:(record 1000.0)
         (record cand))
  in
  (* tolerance = max (6 * 10) (0.25 * 1000) = 250: for a rate series the
     regression direction inverts — drops regress, rises never do. *)
  Alcotest.(check bool) "large drop regresses" true (regressed 600.0);
  Alcotest.(check bool) "drop within tolerance ok" false (regressed 900.0);
  Alcotest.(check bool) "rise never regresses" false (regressed 2000.0)

(* -- Export run-info metric ---------------------------------------------------- *)

let export_run_info_metric () =
  Runlog.set_current
    (Some
       {
         Runlog.run_id = "r0123456789abcdef";
         parent_run_id = Some "rfedcba9876543210";
       });
  Fun.protect ~finally:(fun () -> Runlog.set_current None) @@ fun () ->
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "steps");
  let body = Export.render m in
  Alcotest.(check bool) "info metric present" true
    (contains body
       "ewalk_run_info{run_id=\"r0123456789abcdef\",parent_run_id=\"rfedcba9876543210\"} 1");
  match Export.validate body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exposition with run info rejected: %s" e

(* -- Flight capacity validation ------------------------------------------------ *)

let flight_capacity_env_validation () =
  let dir = Filename.temp_file "ewalk_flight" "" in
  Sys.remove dir;
  Unix.putenv "EWALK_FLIGHT_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "EWALK_FLIGHT_DIR" "";
      Unix.putenv "EWALK_FLIGHT_CAPACITY" "";
      Flight.disarm ())
    (fun () ->
      let rejects what v check_msg =
        Unix.putenv "EWALK_FLIGHT_CAPACITY" v;
        match Flight.enable_from_env () with
        | Ok () -> Alcotest.failf "%s accepted" what
        | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s error names the variable" what)
              true
              (contains e "EWALK_FLIGHT_CAPACITY");
            if check_msg then
              Alcotest.(check bool)
                (Printf.sprintf "%s error carries the value" what)
                true (contains e v)
      in
      rejects "zero capacity" "0" true;
      rejects "negative capacity" "-3" true;
      rejects "non-numeric capacity" "banana" true;
      Unix.putenv "EWALK_FLIGHT_CAPACITY" "8";
      (match Flight.enable_from_env () with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Flight.disarm ())

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick json_rendering;
          Alcotest.test_case "parser roundtrip" `Quick json_parser_roundtrip;
          Alcotest.test_case "parser errors" `Quick json_parser_errors;
          Alcotest.test_case "accessors" `Quick json_accessors;
        ] );
      ( "benchstat",
        [
          Alcotest.test_case "median and mad" `Quick benchstat_median_mad;
          Alcotest.test_case "measure" `Quick benchstat_measure;
          Alcotest.test_case "paired overhead non-negative" `Quick
            benchstat_overhead_non_negative;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "roundtrip" `Quick ledger_roundtrip;
          Alcotest.test_case "accepts BENCH_core.json" `Quick
            ledger_accepts_bench_core;
          Alcotest.test_case "append and read" `Quick ledger_append_read;
          Alcotest.test_case "truncated tail tolerated" `Quick
            ledger_truncation_tolerated;
          Alcotest.test_case "diff regression gate" `Quick ledger_diff_gate;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            metrics_counters_gauges;
          Alcotest.test_case "histogram" `Quick metrics_histogram;
          Alcotest.test_case "snapshot deterministic" `Quick
            metrics_snapshot_deterministic;
          Alcotest.test_case "histogram buckets validated once" `Quick
            metrics_histogram_first_registration_only;
          Alcotest.test_case "set_at deterministic" `Quick
            metrics_set_at_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick trace_ring;
          Alcotest.test_case "null and filter" `Quick trace_null_and_filter;
          Alcotest.test_case "jsonl format" `Quick trace_jsonl_format;
          Alcotest.test_case "event parser roundtrip" `Quick
            trace_event_parser_roundtrip;
          Alcotest.test_case "full run roundtrip" `Quick
            trace_full_run_roundtrip;
        ] );
      ( "timer",
        [
          Alcotest.test_case "progress" `Quick progress_reporter;
        ] );
      ( "observe",
        [
          Alcotest.test_case "metrics match process" `Quick
            observe_metrics_match_process;
          Alcotest.test_case "event stream shape" `Quick
            observe_event_stream_shape;
          Alcotest.test_case "noop is free" `Quick observe_noop_attaches_nothing;
          Alcotest.test_case "srw attach" `Quick observe_srw_attach;
          Alcotest.test_case "phase lengths per walker" `Quick
            observe_phase_lengths_per_walker;
          Alcotest.test_case "null and live sinks agree" `Quick
            observe_null_and_live_sinks_agree;
          Alcotest.test_case "fresh registries bounded memory" `Quick
            observe_fresh_registries_bounded;
          Alcotest.test_case "determinism" `Quick trace_determinism;
          Alcotest.test_case "competing tick drains mid-run" `Quick
            observe_competing_tick_drains;
        ] );
      ( "export",
        [
          Alcotest.test_case "render validates" `Quick export_render_validates;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump replays" `Quick flight_dump_replays;
          Alcotest.test_case "capacity env validation" `Quick
            flight_capacity_env_validation;
        ] );
      ( "runlog",
        [
          Alcotest.test_case "derive deterministic" `Quick
            runlog_derive_deterministic;
          Alcotest.test_case "validate_id" `Quick runlog_validate_id;
          Alcotest.test_case "run_info event roundtrip" `Quick
            trace_run_info_roundtrip;
          Alcotest.test_case "event_of_line error shape" `Quick
            trace_event_of_line_error_shape;
          Alcotest.test_case "export run info metric" `Quick
            export_run_info_metric;
          Alcotest.test_case "ledger run_id roundtrip" `Quick
            ledger_run_id_roundtrip;
          Alcotest.test_case "ledger rate gate inverts" `Quick
            ledger_rate_gate;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "pure rate helpers" `Quick throughput_pure_rates;
          Alcotest.test_case "sampler basics" `Quick throughput_sampler_basic;
        ] );
    ]
