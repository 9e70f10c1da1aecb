module Metrics = Ewalk_obs.Metrics
module Trace = Ewalk_obs.Trace

(* The bundle splits into a shared half (registry + sink, safe to pass
   across pool lanes) and a cheap per-trial view carrying the trial
   sequence number (for deterministic gauge resolution) and the drains
   that hold the trial's unpublished metric values.  [for_trial] mints a
   view; the view handed out by [create] is trial 0. *)

type shared = { metrics_ : Metrics.t option; sink_ : Trace.sink }

type t = {
  sh : shared;
  seq : int;
  mutable drains : (unit -> unit) list;
      (* Publishers: each pushes what the trial counted since its last run
         into the registry.  Run every [drain_interval] steps, and at
         [flush]/[finish].  Owned by the lane running the trial — never
         shared. *)
}

let create ?metrics ?(sink = Trace.null) () =
  { sh = { metrics_ = metrics; sink_ = sink }; seq = 0; drains = [] }

let for_trial t ~trial = { sh = t.sh; seq = trial; drains = [] }
let metrics t = t.sh.metrics_
let sink t = t.sh.sink_

let is_noop t =
  (match t.sh.metrics_ with None -> true | Some _ -> false)
  && Trace.is_null t.sh.sink_

let drain_interval = 4096
(* Between drains the registry lags the walk by at most this many steps —
   small enough for a live /metrics poll, large enough to amortise to
   nothing per step. *)

let run_drains t = List.iter (fun f -> f ()) t.drains

(* Publish the delta of a monotone native counter (and hand it to [also]).
   The first read is the baseline: a resumed engine starts with history
   this view must not re-add. *)
let delta_drain ?(also = ignore) c read =
  let last = ref (read ()) in
  fun () ->
    let now = read () in
    Metrics.add c (now - !last);
    also (now - !last);
    last := now

(* Phase accounting in plain ints: the phase-boundary observer counts each
   phase and bins the one it closes — measured in that walker's own steps,
   from its previous boundary — and the returned drain publishes and
   clears the counts.  A walker's first boundary after attach closes
   nothing. *)
let phase_drain m e =
  let blue_c = Metrics.counter m "phases_blue" in
  let red_c = Metrics.counter m "phases_red" in
  let hist = Metrics.histogram m "phase_length" in
  let bounds = Metrics.hist_bounds hist in
  let nb = Array.length bounds in
  let buckets = Array.make (nb + 1) 0 in
  let blue = ref 0 and red = ref 0 and count = ref 0 and sum = ref 0 in
  let lo = ref max_int and hi = ref 0 in
  let opened = Array.make (Engine.walkers e) (-1) in
  Engine.set_phase_observer e
    (Some
       (fun ~walker ev ->
         match ev with
         | Trace.Phase { kind; _ } ->
             let now = Engine.walker_steps e walker in
             if opened.(walker) >= 0 then begin
               let len = now - opened.(walker) in
               let i = ref 0 in
               while !i < nb && float_of_int len > bounds.(!i) do
                 incr i
               done;
               buckets.(!i) <- buckets.(!i) + 1;
               incr count;
               sum := !sum + len;
               lo := min !lo len;
               hi := max !hi len
             end;
             opened.(walker) <- now;
             incr (match kind with Trace.Blue -> blue | Trace.Red -> red)
         | _ -> ()));
  fun () ->
    Metrics.add blue_c !blue;
    Metrics.add red_c !red;
    blue := 0;
    red := 0;
    if !count > 0 then begin
      Metrics.hist_merge hist ~bucket_counts:buckets ~count:!count
        ~sum:(float_of_int !sum) ~min:(float_of_int !lo)
        ~max:(float_of_int !hi);
      Array.fill buckets 0 (nb + 1) 0;
      count := 0;
      sum := 0;
      lo := max_int;
      hi := 0
    end

(* Cap on per-walker labelled series: beyond this many walkers only the
   aggregate counters are published (a 1000-walker engine should not mint
   4000 registry names). *)
let per_walker_cap = 32

let attach t e =
  if not (Trace.is_null t.sh.sink_) then begin
    let sink = t.sh.sink_ in
    Engine.set_observer e (Some (fun ~walker:_ ev -> Trace.emit sink ev))
  end;
  match t.sh.metrics_ with
  | None -> ()
  | Some m ->
      let w = Engine.walkers e in
      if w > 1 then
        Metrics.set (Metrics.gauge m "kernel_walkers") (float_of_int w);
      let drain name read =
        t.drains <- delta_drain (Metrics.counter m name) read :: t.drains
      in
      drain "blue_steps" (fun () -> Engine.blue_steps e);
      drain "red_steps" (fun () -> Engine.red_steps e);
      (* The per-walker steps series attributes the throughput time series
         to individual walkers: the aggregate sampler is fed by the
         bundle's own steps drain (see [instrument]). *)
      if w > 1 && w <= per_walker_cap then
        for i = 0 to w - 1 do
          let series name =
            Metrics.with_label name ~key:"walker" ~value:(string_of_int i)
          in
          drain (series "blue_steps") (fun () -> Engine.walker_blue_steps e i);
          drain (series "red_steps") (fun () -> Engine.walker_red_steps e i);
          drain (series "steps") (fun () -> Engine.walker_steps e i)
        done;
      t.drains <- phase_drain m e :: t.drains

let attach_eprocess = attach

(* Ceiling of [pct]% of [total]. *)
let target ~total pct = ((pct * total) + 99) / 100

let percents = [ 25; 50; 75; 100 ]

let instrument ?resumed_at t (p : Cover.process) =
  if is_noop t then p
  else begin
    let cov = p.coverage in
    let live = not (Trace.is_null t.sh.sink_) in
    let n = Coverage.total_vertices cov and m = Coverage.total_edges cov in
    if live then
      Trace.prologue (Trace.emit t.sh.sink_) ?resumed_at ~name:p.name ~n ~m
        ~start:(p.position ());
    (match t.sh.metrics_ with
    | None -> ()
    | Some reg ->
        Metrics.set_at (Metrics.gauge reg "graph_vertices") ~seq:t.seq
          (float_of_int n);
        Metrics.set_at (Metrics.gauge reg "graph_edges") ~seq:t.seq
          (float_of_int m);
        (* Coverage gauges ride the drain too, so a mid-run registry read
           (the --listen /progress endpoint) sees fractions at most one
           drain interval old, not just the final values. *)
        let cov_v = Metrics.gauge reg "coverage_vertex_fraction" in
        let cov_e = Metrics.gauge reg "coverage_edge_fraction" in
        (* The steps drain doubles as the throughput sampler's feed: the
           delta is already in hand once per drain interval, so the
           steps/second time series costs nothing on the per-step path. *)
        t.drains <-
          delta_drain ~also:Ewalk_obs.Throughput.add
            (Metrics.counter reg "steps") p.steps_done
          :: (fun () ->
               Metrics.set_at cov_v ~seq:t.seq (Coverage.vertex_fraction cov);
               Metrics.set_at cov_e ~seq:t.seq (Coverage.edge_fraction cov))
          :: t.drains);
    (* The per-step drain budget is one countdown decrement. *)
    let countdown = ref drain_interval in
    let tick () =
      decr countdown;
      if !countdown = 0 then begin
        countdown := drain_interval;
        run_drains t
      end
    in
    if not live then
      (* Milestone events would go nowhere, so nothing coverage-related is
         computed per step. *)
      Cover.with_step_hook p ~hook:(fun _ -> tick ())
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
      Cover.with_step_hook p ~hook:(fun p ->
          milestones (p.steps_done ());
          tick ())
    end
  end

let flush t = run_drains t

let finish t (p : Cover.process) =
  run_drains t;
  let cov = p.coverage in
  (match t.sh.metrics_ with
  | None -> ()
  | Some reg ->
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
