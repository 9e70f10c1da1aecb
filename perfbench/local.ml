(* The two in-process workloads: cover-1m (one graph at paper scale, far
   outside the cache) and trials-10k (the Figure 1 trial loop over many
   small graphs, inside the cache).  Both run the same five phases on
   their own fixture; only the sizes differ. *)

open Ewalk_graph
module Rng = Ewalk_prng.Rng
module Ep = Ewalk.Eprocess
module Engine = Ewalk_kernel.Engine
module Snapshot = Ewalk_resume.Snapshot

type cfg = {
  n : int;
  graphs : int;  (** distinct graphs built by set-up *)
  setup_reps : int;  (** set-up is repeated; the median is reported *)
  rounds : int;
      (** the phases after set-up run interleaved in this many rounds, so
          that their samples spread over the whole run; the counts below
          are totals, shared out evenly over the rounds *)
  covers : int;
      (** fresh-walk covers; the covers of one graph run back to back, as
          an experiment runs its trials graph by graph *)
  mix_reps : int;
  mix_steps : int;  (** walker steps per engine per rep of the mix *)
  latency_walks : int;
      (** resident walks the 1000-step advances rotate over: each round
          advances each walk in turn, an equal share of the round's
          samples back to back; [rounds * latency_walks] divides
          [latency_samples] *)
  latency_samples : int;
  checkpoints : int;
  shared_walk : bool;
      (** the step-latency and checkpoint phases use the walk the cover
          phase covered (one graph at paper scale), instead of walks of
          their own: [latency_walks] covered walks, and fresh walks
          snapshotted mid-cover, after n steps *)
}

let degree = 4
let latency_steps = 1000

(* Every timing is taken over windows of its samples
   ([Report.add_windowed]): cover_s the best median of up to 8 covers,
   step_p50_ms the best p50 and step_p99_ms the median p99 of 2000
   advances, the others the best single sample. *)
let cover_window = 8
let latency_window = 2000
let verify_steps = 10_000
let mix_walkers = 8

(* Every random input derives from the seed through a numbered stream:
   graph [i] from stream [1 + i], the walks of each phase from their own
   range. *)
let stream ~seed k = Rng.stream (Rng.create ~seed ()) k
let graph_rng ~seed i = stream ~seed (1 + i)
let walk_rng ~seed ~phase i = stream ~seed ((phase * 1_000_000) + i)

let build_span_name n = Printf.sprintf "Gen_regular.random_regular_connected n=%d" n

let build_graph rng n =
  let rng = Span.call ~layer:"prng" "Rng.copy" (fun () -> Rng.copy rng) in
  Span.call ~layer:"graph" (build_span_name n) (fun () ->
      Gen_regular.random_regular_connected rng n degree)

let fresh_eprocess g rng =
  let start = Span.call ~layer:"prng" "Rng.int" (fun () -> Rng.int rng (Graph.n g)) in
  Span.call ~layer:"core" "Eprocess.create" (fun () -> Ep.create g rng ~start)

let starts rng g k =
  Span.call ~layer:"prng" "Rng.int" (fun () ->
      Array.init k (fun _ -> Rng.int rng (Graph.n g)))

(* Medians of the snapshot round trips, per vertex where it says so. *)
type resume = {
  write_s : float;
  read_s : float;
  bytes_per_vertex : float;
  write_words_per_vertex : float;
  read_words_per_vertex : float;
}

(* -- phases ------------------------------------------------------------------ *)

(* Set-up runs first; every later phase returns [(slice, finish)]:
   [slice r] runs round [r]'s share of its samples as one timed phase
   (the rounds interleave the phases), [finish ()] checks the totals and
   reports the metrics. *)

let setup cfg ~seed ~small =
  let build () =
    Array.init cfg.graphs (fun i -> build_graph (graph_rng ~seed i) cfg.n)
  in
  let warm () = ignore (build_graph (graph_rng ~seed:(seed + 1) 0) (Graph.n small)) in
  let graphs = ref [||] in
  let times =
    Array.init cfg.setup_reps (fun _ ->
        Span.phase "setup"
          ~before:(fun () -> graphs := [||])
          ~warm
          (fun () -> graphs := build ()))
  in
  Array.iter
    (fun g ->
      Report.checkf
        (Graph.n g = cfg.n && Graph.is_regular g && Graph.max_degree g = degree)
        "set-up graph is not %d-regular on %d vertices" degree cfg.n)
    !graphs;
  Report.add "setup_s" ~unit_:"s" ~samples:cfg.setup_reps
    (Report.median times);
  !graphs

let cover cfg ~seed ~small graphs =
  let total = cfg.covers in
  let samples = Array.make total 0. in
  let steps = Array.make total 0 and blue = Array.make total 0 in
  let last = ref None in
  let one g i =
    let n = Graph.n g in
    let rng = walk_rng ~seed ~phase:1 i in
    let t0 = Span.now () in
    let p = fresh_eprocess g rng in
    let r =
      Span.call ~layer:"core" "Eprocess.run_to_vertex_cover"
        ~failed:Option.is_none (fun () -> Ep.run_to_vertex_cover p)
    in
    let dt = Span.now () -. t0 in
    (match r with
    | Some t ->
        Report.checkf
          (t <= Ewalk.Cover.default_cap g
          && Ewalk.Coverage.vertices_visited (Ep.coverage p) = n
          && Ep.steps p = t)
          "cover %d: %d steps but %d of %d vertices seen" i t
          (Ewalk.Coverage.vertices_visited (Ep.coverage p))
          n
    | None -> Report.checkf false "cover %d: no cover within the default cap" i);
    (p, dt)
  in
  let slice =
    Span.phase_slice "cover" ~total ~rounds:cfg.rounds
      ~warm:(fun () -> ignore (one small 0))
      (fun i ->
        let p, dt = one graphs.(i * Array.length graphs / total) i in
        samples.(i) <- dt;
        steps.(i) <- Ep.steps p;
        blue.(i) <- Ep.blue_steps p;
        last := Some p)
  in
  let finish () =
    Report.covers ~n:cfg.n ~steps ~blue;
    Report.add_windowed "cover_s" ~unit_:"s" ~across:`Lowest
      ~window:(min cover_window (total / cfg.rounds))
      Report.median samples
  in
  (slice, finish, fun () -> Option.get !last)

(* Walker steps per second over a fixed-length mix: the simple random
   walk, an 8-walker cooperating engine and an 8-walker competing
   engine, each built before its timed stretch. *)
let steps cfg ~seed ~small graphs =
  let total = cfg.mix_reps in
  let rates = Array.make total 0. in
  let one g l i =
    let rng = walk_rng ~seed ~phase:2 i in
    let srw =
      let start = (starts rng g 1).(0) in
      Span.call ~layer:"core" "Srw.create" (fun () -> Ewalk.Srw.create g rng ~start)
    in
    let engine mode =
      let starts = starts rng g mix_walkers in
      Span.call ~layer:"kernel" "Engine.create" (fun () ->
          Engine.create ~mode Engine.E_uar g rng ~starts)
    in
    let coop = engine Engine.Cooperating and comp = engine Engine.Competing in
    let t0 = Span.now () in
    Span.call ~layer:"core" "Srw.run_steps" (fun () -> Ewalk.Srw.run_steps srw l);
    Span.call ~layer:"kernel" "Engine.run_rounds:cooperating" (fun () ->
        Engine.run_rounds coop (l / mix_walkers));
    Span.call ~layer:"kernel" "Engine.run_rounds:competing" (fun () ->
        Engine.run_rounds comp (l / mix_walkers));
    let dt = Span.now () -. t0 in
    let want = l / mix_walkers * mix_walkers in
    Report.checkf
      (Ewalk.Srw.steps srw = l && Engine.steps coop = want
     && Engine.steps comp = want)
      "mix %d: walks took the wrong number of steps" i;
    float_of_int (l + (2 * want)) /. dt
  in
  let slice =
    Span.phase_slice "steps" ~total ~rounds:cfg.rounds
      ~warm:(fun () -> ignore (one small 16_000 total))
      (fun i -> rates.(i) <- one graphs.(i mod Array.length graphs) cfg.mix_steps i)
  in
  let finish () =
    Report.add_windowed "steps_per_s" ~unit_:"1/s" ~across:`Highest ~window:1 Report.median
      rates
  in
  (slice, finish)

(* Closed-loop 1000-step advances, round robin over resident walks.  The
   walks have covered their graph before the first sample, so every
   sample sees the same regime: the process after cover. *)
let step_latency cfg ~seed ~small graphs ~covered =
  let walks = ref [||] and exact = ref true in
  let create () =
    walks :=
      if cfg.shared_walk then [| covered () |]
      else
        Array.init cfg.latency_walks (fun i ->
            let p =
              fresh_eprocess graphs.(i mod Array.length graphs)
                (walk_rng ~seed ~phase:3 i)
            in
            ignore (Ep.run_to_vertex_cover p);
            p)
  in
  let total = cfg.latency_samples in
  let samples = Array.make total 0. in
  let advance p =
    Span.call ~layer:"core" "Eprocess.run_steps" (fun () ->
        Ep.run_steps p latency_steps)
  in
  let warm () =
    advance (fresh_eprocess small (walk_rng ~seed ~phase:3 cfg.latency_walks))
  in
  let before () = if Array.length !walks = 0 then create () in
  let slice =
    Span.phase_slice "step-latency" ~total ~rounds:cfg.rounds
      ~before ~warm
      (fun s ->
        let walks = !walks in
        let per_round = total / cfg.rounds in
        let per_walk = per_round / Array.length walks in
        let p = walks.(s mod per_round / per_walk) in
        (* A walk's first advance in a round brings it back into cache
           and is not timed. *)
        if s mod per_walk = 0 then advance p;
        let steps0 = Ep.steps p in
        let t0 = Span.now () in
        advance p;
        samples.(s) <- Span.now () -. t0;
        if Ep.steps p <> steps0 + latency_steps then exact := false)
  in
  let finish () =
    Report.checkf !exact "a latency advance did not take exactly %d steps" latency_steps;
    let windowed name ~across q =
      Report.add_windowed name ~unit_:"ms" ~across ~window:latency_window
        (fun a -> Report.ms (Report.quantile a q))
        samples
    in
    windowed "step_p50_ms" ~across:`Lowest 0.5;
    windowed "step_p99_ms" ~across:`Median 0.99
  in
  (slice, finish)

let vertices p = Ewalk.Coverage.vertices_visited (Ep.coverage p)

(* Snapshot write and read, each read checked by stepping the original
   and the restored walk on and comparing them.  Snapshots are of fresh
   walks stopped mid-cover, or of the covered walk [covered ()]. *)
let checkpoint cfg ~seed ~dir ~small graphs ~covered =
  let total = cfg.checkpoints in
  let writes = Array.make total 0. in
  let reads = Array.make total 0. in
  let write_words = Array.make total 0. in
  let read_words = Array.make total 0. in
  let bytes = Array.make total 0 in
  let one i =
    let g, p =
      if not cfg.shared_walk then begin
        let g = graphs.(i mod Array.length graphs) in
        let p = fresh_eprocess g (walk_rng ~seed ~phase:4 i) in
        Ep.run_steps p cfg.n;
        (g, p)
      end
      else
        let p = covered () in
        (Ep.graph p, p)
    in
    let path = Filename.concat dir (Printf.sprintf "snapshot-%d.json" i) in
    let w0 = Span.allocated () and t0 = Span.now () in
    let written =
      Span.call ~layer:"resume" "Snapshot.write" ~failed:Result.is_error
        (fun () -> Snapshot.write ~path (Snapshot.Eprocess p))
    in
    let t1 = Span.now () and w1 = Span.allocated () in
    bytes.(i) <- (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0);
    let w2 = Span.allocated () and t2 = Span.now () in
    let read =
      Span.call ~layer:"resume" "Snapshot.read" ~failed:Result.is_error
        (fun () -> Snapshot.read g ~path)
    in
    let t3 = Span.now () and w3 = Span.allocated () in
    (try Sys.remove path with Sys_error _ -> ());
    (match (written, read) with
    | Ok (), Ok (Snapshot.Eprocess q) ->
        let steps0 = Ep.steps p in
        Ep.run_steps p verify_steps;
        Ep.run_steps q verify_steps;
        Report.checkf
          (Ep.position p = Ep.position q
          && Ep.steps p = Ep.steps q
          && Ep.steps q = steps0 + verify_steps
          && vertices p = vertices q)
          "snapshot %d: restored walk diverged from the original" i
    | Error e, _ | _, Error e ->
        Report.checkf false "snapshot %d: %s" i (Snapshot.error_to_string e)
    | Ok (), Ok _ -> Report.checkf false "snapshot %d: read back another kind" i);
    writes.(i) <- t1 -. t0;
    reads.(i) <- t3 -. t2;
    write_words.(i) <- w1 -. w0;
    read_words.(i) <- w3 -. w2
  in
  (* At n = 10^6 the first round trip also grows the heap to the
     reader's 2 GB peak, a one-time cost of the process that the fastest
     round trip leaves out. *)
  let warm () =
    let p = fresh_eprocess small (walk_rng ~seed ~phase:4 total) in
    Ep.run_steps p (Graph.n small);
    let path = Filename.concat dir "snapshot-warm.json" in
    ignore (Snapshot.write ~path (Snapshot.Eprocess p));
    ignore (Snapshot.read small ~path);
    try Sys.remove path with Sys_error _ -> ()
  in
  let slice = Span.phase_slice "checkpoint" ~total ~rounds:cfg.rounds ~warm one in
  let finish () =
    let per_vertex a = Report.median a /. float_of_int cfg.n in
    let best name a =
      Report.add_windowed name ~unit_:"s" ~across:`Lowest ~window:1 Report.median a
    in
    best "checkpoint_write_s" writes;
    best "checkpoint_read_s" reads;
    {
      write_s = Report.median writes;
      read_s = Report.median reads;
      bytes_per_vertex = per_vertex (Array.map float_of_int bytes);
      write_words_per_vertex = per_vertex write_words;
      read_words_per_vertex = per_vertex read_words;
    }
  in
  (slice, finish)

type outcome = { graphs : Graph.t array; resume : resume }

let run cfg ~seed ~dir =
  let small = build_graph (graph_rng ~seed:(seed + 1) 0) 1024 in
  let graphs = setup cfg ~seed ~small in
  let cover_slice, cover_finish, covered = cover cfg ~seed ~small graphs in
  let steps_slice, steps_finish = steps cfg ~seed ~small graphs in
  let latency_slice, latency_finish = step_latency cfg ~seed ~small graphs ~covered in
  let checkpoint_slice, checkpoint_finish =
    checkpoint cfg ~seed ~dir ~small graphs ~covered
  in
  for r = 0 to cfg.rounds - 1 do
    cover_slice r;
    steps_slice r;
    latency_slice r;
    checkpoint_slice r
  done;
  cover_finish ();
  steps_finish ();
  latency_finish ();
  { graphs; resume = checkpoint_finish () }
