open Ewalk_graph
module Rng = Ewalk_prng.Rng

type t = {
  g : Graph.t;
  rng : Rng.t;
  rule : rule;
  mutable pos : Graph.vertex;
  mutable steps : int;
  mutable blue_steps : int;
  mutable red_steps : int;
  coverage : Coverage.t;
  marks : Arc_marks.t;
  record_phases : bool;
  mutable current_phase : (phase_kind * int * Graph.vertex) option;
  mutable phases : phase list; (* reversed *)
  mutable observer : (Ewalk_obs.Trace.event -> unit) option;
  mutable phase_observer : (Ewalk_obs.Trace.event -> unit) option;
}

and rule =
  | Uar
  | Lowest_slot
  | Highest_slot
  | Adversarial of (t -> Graph.edge array -> int)

and phase_kind = Blue | Red

and phase = {
  kind : phase_kind;
  start_step : int;
  start_vertex : Graph.vertex;
  end_step : int;
  end_vertex : Graph.vertex;
}

let create ?(rule = Uar) ?(record_phases = false) g rng ~start =
  if Graph.n g = 0 then invalid_arg "Eprocess.create: empty graph";
  if start < 0 || start >= Graph.n g then
    invalid_arg "Eprocess.create: start out of range";
  let coverage = Coverage.create g in
  Coverage.record_start coverage start;
  {
    g;
    rng;
    rule;
    pos = start;
    steps = 0;
    blue_steps = 0;
    red_steps = 0;
    coverage;
    marks = Arc_marks.create g;
    record_phases;
    current_phase = None;
    phases = [];
    observer = None;
    phase_observer = None;
  }

let graph t = t.g
let position t = t.pos
let steps t = t.steps
let blue_steps t = t.blue_steps
let red_steps t = t.red_steps
let coverage t = t.coverage
let marks t = t.marks

let blue_degree t v =
  Arc_marks.live t.marks ~start:(Graph.adj_start t.g v)
    ~stop:(Graph.adj_stop t.g v)

let unvisited_incident t v = Arc_marks.incident_edges t.marks v
let in_blue_phase t = blue_degree t t.pos > 0

let set_observer t obs = t.observer <- obs
let set_phase_observer t obs = t.phase_observer <- obs

let emit_phase t kind =
  match (t.observer, t.phase_observer) with
  | None, None -> ()
  | o, po ->
      let ev =
        Ewalk_obs.Trace.Phase
          {
            step = t.steps;
            kind =
              (match kind with
              | Blue -> Ewalk_obs.Trace.Blue
              | Red -> Ewalk_obs.Trace.Red);
            vertex = t.pos;
          }
      in
      (match o with Some f -> f ev | None -> ());
      (match po with Some f -> f ev | None -> ())

let record_phase_transition t next_is_blue =
  let now_kind = if next_is_blue then Blue else Red in
  match t.current_phase with
  | None ->
      t.current_phase <- Some (now_kind, t.steps, t.pos);
      emit_phase t now_kind
  | Some (kind, start_step, start_vertex) ->
      if kind <> now_kind then begin
        if t.record_phases then
          t.phases <-
            {
              kind;
              start_step;
              start_vertex;
              end_step = t.steps;
              end_vertex = t.pos;
            }
            :: t.phases;
        t.current_phase <- Some (now_kind, t.steps, t.pos);
        emit_phase t now_kind
      end

let choose_blue_slot t ~start ~stop k =
  match t.rule with
  | Uar -> Arc_marks.nth_live t.marks ~start ~stop (Rng.int t.rng k)
  | Lowest_slot -> Arc_marks.first_live t.marks ~start ~stop
  | Highest_slot -> Arc_marks.last_live t.marks ~start ~stop
  | Adversarial f ->
      let candidates = Arc_marks.incident_edges t.marks t.pos in
      let idx = f t candidates in
      let idx = max 0 (min idx (Array.length candidates - 1)) in
      Arc_marks.slot_of_edge t.marks t.pos candidates.(idx)

let step t =
  let v = t.pos in
  let start = Graph.adj_start t.g v and stop = Graph.adj_stop t.g v in
  if start = stop then invalid_arg "Eprocess.step: isolated vertex";
  let k = Arc_marks.live t.marks ~start ~stop in
  let blue = k > 0 in
  record_phase_transition t blue;
  let slot =
    if blue then choose_blue_slot t ~start ~stop k
    else start + Rng.int t.rng (stop - start)
  in
  let w = Graph.slot_vertex t.g slot in
  let e = Graph.slot_edge t.g slot in
  t.steps <- t.steps + 1;
  if blue then begin
    t.blue_steps <- t.blue_steps + 1;
    Arc_marks.retire_edge t.marks e
  end
  else t.red_steps <- t.red_steps + 1;
  Coverage.record_edge t.coverage ~step:t.steps e;
  t.pos <- w;
  Coverage.record_move t.coverage ~step:t.steps w;
  match t.observer with
  | None -> ()
  | Some f ->
      f (Ewalk_obs.Trace.Step { step = t.steps; vertex = w; edge = e; blue })

(* Tight driver loops for the full-scale benchmarks: the same [step]
   body in a plain counted/conditional loop, skipping the generic
   {!Cover} runner's per-step closure dispatch.  Draw-for-draw identical
   to stepping through the adapter. *)

let run_steps t k =
  if k < 0 then invalid_arg "Eprocess.run_steps: negative step count";
  for _ = 1 to k do
    step t
  done

let run_to_vertex_cover ?cap t =
  let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
  while (not (Coverage.all_vertices_visited t.coverage)) && t.steps < cap do
    step t
  done;
  Coverage.vertex_cover_step t.coverage

let run_to_edge_cover ?cap t =
  let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
  while (not (Coverage.all_edges_visited t.coverage)) && t.steps < cap do
    step t
  done;
  Coverage.edge_cover_step t.coverage

let phase_log t = List.rev t.phases

type rule_id = [ `Uar | `Lowest_slot | `Highest_slot ]

type checkpoint = {
  ck_rule : rule_id;
  ck_pos : Graph.vertex;
  ck_steps : int;
  ck_blue_steps : int;
  ck_red_steps : int;
  ck_rng : int64 array;
  ck_coverage : Coverage.state;
  ck_record_phases : bool;
  ck_current_phase : (phase_kind * int * Graph.vertex) option;
  ck_phases : phase list;
}

let checkpoint t =
  let ck_rule =
    match t.rule with
    | Uar -> `Uar
    | Lowest_slot -> `Lowest_slot
    | Highest_slot -> `Highest_slot
    | Adversarial _ ->
        invalid_arg
          "Eprocess.checkpoint: an adversarial rule is a closure and cannot \
           be serialized"
  in
  {
    ck_rule;
    ck_pos = t.pos;
    ck_steps = t.steps;
    ck_blue_steps = t.blue_steps;
    ck_red_steps = t.red_steps;
    ck_rng = Rng.save t.rng;
    ck_coverage = Coverage.save t.coverage;
    ck_record_phases = t.record_phases;
    ck_current_phase = t.current_phase;
    ck_phases = List.rev t.phases;
  }

let of_checkpoint g ck =
  if ck.ck_pos < 0 || ck.ck_pos >= Graph.n g then
    invalid_arg "Eprocess.of_checkpoint: position out of range";
  if
    ck.ck_steps < 0 || ck.ck_blue_steps < 0 || ck.ck_red_steps < 0
    || ck.ck_blue_steps + ck.ck_red_steps <> ck.ck_steps
  then invalid_arg "Eprocess.of_checkpoint: inconsistent step counters";
  (* Every blue step retires a fresh edge and no red step does, so the
     marks are the coverage's edge set and are rebuilt from it. *)
  if ck.ck_blue_steps <> ck.ck_coverage.s_edges_seen then
    invalid_arg "Eprocess.of_checkpoint: blue steps disagree with edges seen";
  let coverage = Coverage.restore g ck.ck_coverage in
  {
    g;
    rng = Rng.restore ck.ck_rng;
    rule =
      (match ck.ck_rule with
      | `Uar -> Uar
      | `Lowest_slot -> Lowest_slot
      | `Highest_slot -> Highest_slot);
    pos = ck.ck_pos;
    steps = ck.ck_steps;
    blue_steps = ck.ck_blue_steps;
    red_steps = ck.ck_red_steps;
    coverage;
    marks = Arc_marks.of_coverage g coverage;
    record_phases = ck.ck_record_phases;
    current_phase = ck.ck_current_phase;
    phases = List.rev ck.ck_phases;
    observer = None;
    phase_observer = None;
  }

let process t =
  {
    Cover.name =
      (match t.rule with
      | Uar -> "e-process(uar)"
      | Lowest_slot -> "e-process(lowest-slot)"
      | Highest_slot -> "e-process(highest-slot)"
      | Adversarial _ -> "e-process(adversarial)");
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }
