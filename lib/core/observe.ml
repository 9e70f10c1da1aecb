module Metrics = Ewalk_obs.Metrics
module Shard = Ewalk_obs.Shard
module Trace = Ewalk_obs.Trace

(* The bundle splits into a shared half (registry + sink, safe to pass
   across pool lanes) and a cheap per-trial view carrying the trial
   sequence number (for deterministic gauge resolution) and the drain
   closures of the fast path.  [for_trial] mints a view; the view handed
   out by [create] is trial 0. *)

type shared = { metrics_ : Metrics.t option; sink_ : Trace.sink }

type t = {
  sh : shared;
  seq : int;
  mutable drains : (unit -> unit) list;
      (* Fast-path publishers: each reads a process's native counters and
         pushes the delta since its last run into the sharded metrics.
         Run every [drain_mask + 1] steps, and once more at [finish].
         Owned by the lane running the trial — never shared. *)
}

let create ?metrics ?(sink = Trace.null) () =
  { sh = { metrics_ = metrics; sink_ = sink }; seq = 0; drains = [] }

let for_trial t ~trial = { sh = t.sh; seq = trial; drains = [] }
let metrics t = t.sh.metrics_
let sink t = t.sh.sink_

let is_noop t =
  (match t.sh.metrics_ with None -> true | Some _ -> false)
  && Trace.is_null t.sh.sink_

(* Metrics with a null sink: nothing wants per-step events, so nothing
   per-step should be allocated — counters drain from the processes'
   native fields and phases ride the (rare) phase-boundary observer. *)
let is_fast t =
  Trace.is_null t.sh.sink_
  && match t.sh.metrics_ with Some _ -> true | None -> false

let drain_mask = 4095
(* Between drains the registry lags the walk by at most this many steps —
   small enough for a live /metrics poll, large enough to amortise to
   nothing per step. *)

let run_drains t = List.iter (fun f -> f ()) t.drains

(* Phase accounting shared by both paths: count boundaries, observe the
   completed phase's length. *)
let phase_tracker m =
  let phases_blue = Shard.counter m "phases_blue" in
  let phases_red = Shard.counter m "phases_red" in
  let phase_len = Shard.histogram m "phase_length" in
  let open_phase = ref None in
  fun (ev : Trace.event) ->
    match ev with
    | Trace.Phase { step; kind; _ } ->
        (match !open_phase with
        | Some start -> Shard.observe phase_len (float_of_int (step - start))
        | None -> ());
        open_phase := Some step;
        Shard.incr
          (match kind with
          | Trace.Blue -> phases_blue
          | Trace.Red -> phases_red)
    | _ -> ()

(* Shared event interpreter for the native per-step hooks when a live
   sink wants the events anyway: fold the stream into the (sharded)
   registry, then forward. *)
let recorder t =
  let forward = not (Trace.is_null t.sh.sink_) in
  let update =
    match t.sh.metrics_ with
    | None -> ignore
    | Some m ->
        let blue_c = Shard.counter m "blue_steps" in
        let red_c = Shard.counter m "red_steps" in
        let phases = phase_tracker m in
        fun (ev : Trace.event) ->
          (match ev with
          | Trace.Step { blue; _ } -> Shard.incr (if blue then blue_c else red_c)
          | Trace.Phase _ -> phases ev
          | _ -> ())
  in
  fun ev ->
    update ev;
    if forward then Trace.emit t.sh.sink_ ev

(* Publish the delta of a monotone native counter into a sharded one. *)
let delta_drain shard read =
  let last = ref (read ()) in
  (* The pre-attach value is already in the count the caller expects only
     when it is 0; a resumed process starts with history we must not
     re-add, so the initial read is the baseline either way. *)
  fun () ->
    let now = read () in
    Shard.add shard (now - !last);
    last := now

(* Cap on per-walker labelled series: beyond this many walkers only the
   aggregate counters are published (a 1000-walker engine should not mint
   4000 registry names). *)
let per_walker_cap = 32

let attach t e =
  if not (is_noop t) then begin
    let w = Engine.walkers e in
    let metrics = t.sh.metrics_ in
    (match metrics with
    | Some m when w > 1 ->
        Metrics.set (Metrics.gauge m "kernel_walkers") (float_of_int w)
    | _ -> ());
    let walker_counters =
      match metrics with
      | Some m when w > 1 && w <= per_walker_cap ->
          Some
            (Array.init w (fun i ->
                 let series name =
                   Shard.counter m
                     (Metrics.with_label name ~key:"walker"
                        ~value:(string_of_int i))
                 in
                 (series "blue_steps", series "red_steps", series "steps")))
      | _ -> None
    in
    match metrics with
    | Some m when is_fast t ->
        (* Fast path: no per-step events — counters drain in batches from
           the engine's native counters, phases ride the boundary
           observer. *)
        let drain shard read = t.drains <- delta_drain shard read :: t.drains in
        drain (Shard.counter m "blue_steps") (fun () -> Engine.blue_steps e);
        drain (Shard.counter m "red_steps") (fun () -> Engine.red_steps e);
        (* The per-walker steps series attributes the throughput time
           series to individual walkers: the aggregate sampler is fed once
           by the bundle's own steps drain (see [instrument]), this
           labelled breakdown rides the same drain cadence. *)
        Option.iter
          (Array.iteri (fun i (bc, rc, sc) ->
               drain bc (fun () -> Engine.walker_blue_steps e i);
               drain rc (fun () -> Engine.walker_red_steps e i);
               drain sc (fun () -> Engine.walker_steps e i)))
          walker_counters;
        let tracker = phase_tracker m in
        Engine.set_phase_observer e (Some (fun ~walker:_ ev -> tracker ev))
    | _ ->
        (* Live sink: the bundle's own event interpreter gets the per-step
           stream, with per-walker counters folded in on the side when
           enabled. *)
        let record = recorder t in
        Engine.set_observer e
          (Some
             (fun ~walker ev ->
               (match (walker_counters, ev) with
               | Some arr, Trace.Step { blue; _ } ->
                   let bc, rc, sc = arr.(walker) in
                   Shard.incr (if blue then bc else rc);
                   Shard.incr sc
               | _ -> ());
               record ev))
  end

let attach_eprocess = attach

(* Ceiling of [pct]% of [total]. *)
let target ~total pct = ((pct * total) + 99) / 100

let percents = [ 25; 50; 75; 100 ]

let instrument ?resumed_at t (p : Cover.process) =
  if is_noop t then p
  else begin
    let cov = p.coverage in
    let fast = is_fast t in
    let n = Coverage.total_vertices cov and m = Coverage.total_edges cov in
    if not fast then begin
      Trace.emit t.sh.sink_
        (Trace.Run_start { name = p.name; n; m; start = p.position () });
      (match Ewalk_obs.Runlog.current () with
      | Some r ->
          Trace.emit t.sh.sink_
            (Trace.Run_info
               {
                 run_id = r.Ewalk_obs.Runlog.run_id;
                 parent_run_id = r.Ewalk_obs.Runlog.parent_run_id;
               })
      | None -> ());
      match resumed_at with
      | Some step -> Trace.emit t.sh.sink_ (Trace.Resume { step })
      | None -> ()
    end;
    (match t.sh.metrics_ with
    | None -> ()
    | Some reg ->
        Metrics.set_at (Metrics.gauge reg "graph_vertices") ~seq:t.seq
          (float_of_int n);
        Metrics.set_at (Metrics.gauge reg "graph_edges") ~seq:t.seq
          (float_of_int m));
    (match t.sh.metrics_ with
    | None -> ()
    | Some reg ->
        let steps_c = Shard.counter reg "steps" in
        (* Coverage gauges ride the drain too, so a mid-run registry read
           (the --listen /progress endpoint) sees fractions at most one
           drain interval old, not just the final values. *)
        let cov_v = Metrics.gauge reg "coverage_vertex_fraction" in
        let cov_e = Metrics.gauge reg "coverage_edge_fraction" in
        (* The steps drain doubles as the throughput sampler's feed: the
           delta is already in hand once per drain interval, so the
           steps/second time series costs nothing on the per-step path. *)
        let steps_drain =
          let last = ref (p.steps_done ()) in
          fun () ->
            let now = p.steps_done () in
            let d = now - !last in
            Shard.add steps_c d;
            Ewalk_obs.Throughput.add d;
            last := now
        in
        t.drains <-
          steps_drain
          :: (fun () ->
               Metrics.set_at cov_v ~seq:t.seq (Coverage.vertex_fraction cov);
               Metrics.set_at cov_e ~seq:t.seq (Coverage.edge_fraction cov))
          :: t.drains);
    if fast then begin
      (* Null sink: milestone events would go nowhere, so nothing
         coverage-related is computed per step.  The whole per-step
         budget is one countdown decrement; every drain_mask+1 steps the
         registered drains publish counter deltas and coverage gauges.
         This is what keeps the metrics-enabled stepping kernel inside
         its 5% bench budget. *)
      let countdown = ref (drain_mask + 1) in
      Cover.with_step_hook p ~hook:(fun _ ->
          decr countdown;
          if !countdown = 0 then begin
            countdown := drain_mask + 1;
            run_drains t
          end)
    end
    else begin
      (* Pending milestone thresholds, in crossing order: the per-step
         check is one integer comparison against the head target. *)
      let pending total =
        ref
          (if total = 0 then []
           else List.map (fun pct -> (pct, target ~total pct)) percents)
      in
      let pending_v = pending n and pending_e = pending m in
      let check pending kind count total ~step =
        let rec go () =
          match !pending with
          | (pct, tgt) :: rest when count >= tgt ->
              pending := rest;
              Trace.emit t.sh.sink_
                (Trace.Milestone { step; kind; percent = pct; count; total });
              go ()
          | _ -> ()
        in
        go ()
      in
      let milestones step =
        check pending_v Trace.Vertices (Coverage.vertices_visited cov) n ~step;
        check pending_e Trace.Edges (Coverage.edges_visited cov) m ~step
      in
      (match resumed_at with
      | None ->
          (* The start vertex may already put tiny graphs past a threshold. *)
          milestones (p.steps_done ())
      | Some _ ->
          (* Resumed run: thresholds the pre-resume segment already crossed
             were announced in the original trace — drop them silently so
             only new crossings emit. *)
          let drop pending count =
            let rec go () =
              match !pending with
              | (_, tgt) :: rest when count >= tgt ->
                  pending := rest;
                  go ()
              | _ -> ()
            in
            go ()
          in
          drop pending_v (Coverage.vertices_visited cov);
          drop pending_e (Coverage.edges_visited cov));
      match t.sh.metrics_ with
      | Some _ ->
          Cover.with_step_hook p ~hook:(fun p ->
              let steps = p.steps_done () in
              milestones steps;
              if steps land drain_mask = 0 then run_drains t)
      | None ->
          Cover.with_step_hook p ~hook:(fun p -> milestones (p.steps_done ()))
    end
  end

let flush t =
  if not (is_noop t) then begin
    run_drains t;
    match t.sh.metrics_ with
    | Some _ -> Ewalk_obs.Shard.flush_local ()
    | None -> ()
  end

let finish t (p : Cover.process) =
  if not (is_noop t) then begin
    let cov = p.coverage in
    run_drains t;
    (match t.sh.metrics_ with
    | None -> ()
    | Some reg ->
        Ewalk_obs.Shard.flush_local ();
        let set name v = Metrics.set_at (Metrics.gauge reg name) ~seq:t.seq v in
        set "coverage_vertex_fraction" (Coverage.vertex_fraction cov);
        set "coverage_edge_fraction" (Coverage.edge_fraction cov);
        set "frontier_unvisited_vertices"
          (float_of_int
             (Coverage.total_vertices cov - Coverage.vertices_visited cov));
        set "frontier_unvisited_edges"
          (float_of_int (Coverage.total_edges cov - Coverage.edges_visited cov)));
    if not (Trace.is_null t.sh.sink_) then
      Trace.emit t.sh.sink_
        (Trace.Run_end
           {
             steps = p.steps_done ();
             covered = Coverage.all_vertices_visited cov;
           })
  end
