(* The layer ladder of the traced run: one rung per layer, each timed
   from outside through the layer's public functions on the workload's
   own fixture (n = 10^6 in cover-1m, n = 10^4 elsewhere), adding one
   layer at a time — bare CSR walk, PRNG, coverage bookkeeping, the
   simple walk, the E-process, observers, then the multi-walker engine.
   Every rung reports ns and allocated words per step. *)

open Ewalk_graph
module Rng = Ewalk_prng.Rng
module Ep = Ewalk.Eprocess
module Engine = Ewalk_kernel.Engine
module Observe = Ewalk.Observe

(* Steps per rung.  At n = 10^6 that is one cover's worth of steps on one
   walk; smaller fixtures step [rung_steps / 2n] fresh walks 2n steps
   each, so every rung sees the same blue-then-red mix as a cover. *)
let rung_steps = 2_000_000

(* Time [f] with its allocation, under a span; returns (seconds, words). *)
let measure ~layer name f =
  let w0 = Span.allocated () and t0 = Span.now () in
  Span.call ~layer name f;
  let t1 = Span.now () and w1 = Span.allocated () in
  (t1 -. t0, w1 -. w0)

let per_step ~prefix ~unit_suffix (s, w) k =
  let k = float_of_int k in
  Report.add (prefix ^ ".ns_" ^ unit_suffix) ~unit_:"ns" (s *. 1e9 /. k);
  Report.add (prefix ^ ".words_" ^ unit_suffix) ~unit_:"words" (w /. k)

(* Run [walk i] on [reps] fresh walks, summing time and words of the
   stepping only; construction happens outside the measured region. *)
let fresh_walks ~layer ~name ~reps ~make ~walk =
  Gc.compact ();
  let total = ref (0., 0.) in
  for i = 0 to reps - 1 do
    let x = make i in
    let s, w = measure ~layer name (fun () -> walk x) in
    let s0, w0 = !total in
    total := (s0 +. s, w0 +. w)
  done;
  !total

let words_of x = float_of_int (Obj.reachable_words (Obj.repr x))

let run ~seed ~(graph : Graph.t) =
  let g = graph in
  let n = Graph.n g in
  let walk_len = min rung_steps (2 * n) in
  let reps = max 1 (rung_steps / walk_len) in
  let steps = reps * walk_len in
  let rng_of i = Rng.stream (Rng.create ~seed ()) (7_000_000 + i) in
  let start_of rng = Rng.int rng n in
  (* graph: a bare CSR walk over precomputed slot choices. *)
  Report.add "graph.bytes_per_vertex" ~unit_:"B"
    (words_of g *. 8. /. float_of_int n);
  let choices =
    let rng = rng_of 0 in
    Bytes.init 65536 (fun _ -> Char.chr (Rng.int rng (Graph.degree g 0)))
  in
  let pos = ref 0 in
  let bare k =
    let v = ref !pos in
    for i = 0 to k - 1 do
      v :=
        Graph.slot_vertex g
          (Graph.adj_start g !v + Char.code (Bytes.unsafe_get choices (i land 0xFFFF)))
    done;
    pos := !v
  in
  Gc.compact ();
  per_step ~prefix:"graph.walk" ~unit_suffix:"per_step"
    (measure ~layer:"graph" "Graph.slot_vertex walk" (fun () -> bare steps))
    steps;
  (* prng: bounded draws as a walk step makes them. *)
  let rng = rng_of 1 in
  let sink = ref 0 in
  per_step ~prefix:"prng.int" ~unit_suffix:"per_draw"
    (measure ~layer:"prng" "Rng.int" (fun () ->
         for _ = 1 to steps do
           sink := !sink + Rng.int rng 4
         done))
    steps;
  ignore (Sys.opaque_identity !sink);
  (* core: coverage bookkeeping along a precomputed walk. *)
  let vs = Array.make walk_len 0 and es = Array.make walk_len 0 in
  let v = ref 0 in
  for i = 0 to walk_len - 1 do
    let slot =
      Graph.adj_start g !v + Char.code (Bytes.unsafe_get choices (i land 0xFFFF))
    in
    v := Graph.slot_vertex g slot;
    vs.(i) <- !v;
    es.(i) <- Graph.slot_edge g slot
  done;
  per_step ~prefix:"core.coverage" ~unit_suffix:"per_step"
    (fresh_walks ~layer:"core" ~name:"Coverage.record_*" ~reps
       ~make:(fun _ ->
         let c = Ewalk.Coverage.create g in
         Ewalk.Coverage.record_start c 0;
         c)
       ~walk:(fun c ->
         for i = 0 to walk_len - 1 do
           Ewalk.Coverage.record_edge c ~step:(i + 1) es.(i);
           Ewalk.Coverage.record_move c ~step:(i + 1) vs.(i)
         done))
    steps;
  per_step ~prefix:"core.srw" ~unit_suffix:"per_step"
    (fresh_walks ~layer:"core" ~name:"Srw.run_steps" ~reps
       ~make:(fun i ->
         let rng = rng_of (100 + i) in
         Ewalk.Srw.create g rng ~start:(start_of rng))
       ~walk:(fun w -> Ewalk.Srw.run_steps w walk_len))
    steps;
  (* core: the E-process itself, creation timed separately. *)
  let creates = Array.make reps 0. in
  let blue = ref 0 and total = ref 0 in
  let eprocess i =
    let rng = rng_of (1000 + i) in
    let start = start_of rng in
    let t0 = Span.now () in
    let p = Span.call ~layer:"core" "Eprocess.create" (fun () -> Ep.create g rng ~start) in
    creates.(i) <- Span.now () -. t0;
    p
  in
  let first = ref None in
  per_step ~prefix:"core.eprocess" ~unit_suffix:"per_step"
    (fresh_walks ~layer:"core" ~name:"Eprocess.run_steps" ~reps ~make:eprocess
       ~walk:(fun p ->
         Ep.run_steps p walk_len;
         blue := !blue + Ep.blue_steps p;
         total := !total + Ep.steps p;
         if Option.is_none !first then first := Some p))
    steps;
  (match !first with
  | Some p ->
      Report.add "core.eprocess.bytes_per_vertex" ~unit_:"B"
        ((words_of p -. words_of g) *. 8. /. float_of_int n)
  | None -> ());
  first := None;
  Report.add "core.create.us" ~unit_:"us" ~samples:reps
    (Report.median creates *. 1e6);
  Report.add "core.blue_share" ~unit_:"ratio"
    (float_of_int !blue /. float_of_int !total);
  (* obs: the same E-process steps through an observation bundle. *)
  let observed ~prefix ~make_bundle =
    per_step ~prefix ~unit_suffix:"per_step"
      (fresh_walks ~layer:"obs" ~name:(prefix ^ " Cover.run_steps") ~reps
         ~make:(fun i ->
           let rng = rng_of (1000 + i) in
           let p = Ep.create g rng ~start:(start_of rng) in
           let o = make_bundle () in
           Observe.attach_eprocess o p;
           (o, Observe.instrument o (Ep.process p)))
         ~walk:(fun (o, proc) ->
           Ewalk.Cover.run_steps proc walk_len;
           Observe.finish o proc))
      steps
  in
  observed ~prefix:"obs.null" ~make_bundle:(fun () -> Observe.create ());
  observed ~prefix:"obs.metrics" ~make_bundle:(fun () ->
      Observe.create ~metrics:(Ewalk_obs.Metrics.create ()) ());
  (* kernel: the lockstep engine at one and eight walkers. *)
  let engine ~prefix ~unit_suffix ~mode ~walkers =
    per_step ~prefix ~unit_suffix
      (fresh_walks ~layer:"kernel" ~name:(prefix ^ " Engine.run_rounds") ~reps
         ~make:(fun i ->
           let rng = rng_of (1000 + i) in
           let starts = Array.init walkers (fun _ -> start_of rng) in
           Engine.create ~mode Engine.E_uar g rng ~starts)
         ~walk:(fun e -> Engine.run_rounds e (walk_len / walkers)))
      steps
  in
  engine ~prefix:"kernel.w1" ~unit_suffix:"per_step" ~mode:Engine.Cooperating
    ~walkers:1;
  engine ~prefix:"kernel.w8-coop" ~unit_suffix:"per_walker_step"
    ~mode:Engine.Cooperating ~walkers:8;
  engine ~prefix:"kernel.w8-compete" ~unit_suffix:"per_walker_step"
    ~mode:Engine.Competing ~walkers:8
