open Ewalk_graph
module Rng = Ewalk_prng.Rng

type t = {
  g : Graph.t;
  mutable pos : Graph.vertex;
  mutable steps : int;
  rotor : int array; (* per-vertex slot offset in [0, degree) *)
  coverage : Coverage.t;
  mutable observer : (Ewalk_obs.Trace.event -> unit) option;
}

let create ?(randomize_rotors = false) g rng ~start =
  if start < 0 || start >= Graph.n g then
    invalid_arg "Rotor.create: start out of range";
  let rotor =
    Array.init (Graph.n g) (fun v ->
        let deg = Graph.degree g v in
        if randomize_rotors && deg > 0 then Rng.int rng deg else 0)
  in
  let coverage = Coverage.create g in
  Coverage.record_start coverage start;
  { g; pos = start; steps = 0; rotor; coverage; observer = None }

let graph t = t.g
let position t = t.pos
let steps t = t.steps
let coverage t = t.coverage
let rotor_offset t v = t.rotor.(v)
let set_observer t obs = t.observer <- obs

let step t =
  let v = t.pos in
  let deg = Graph.degree t.g v in
  if deg = 0 then invalid_arg "Rotor.step: isolated vertex";
  let slot = Graph.adj_start t.g v + t.rotor.(v) in
  t.rotor.(v) <- (t.rotor.(v) + 1) mod deg;
  let w = Graph.slot_vertex t.g slot in
  let e = Graph.slot_edge t.g slot in
  t.steps <- t.steps + 1;
  Coverage.record_edge t.coverage ~step:t.steps e;
  t.pos <- w;
  Coverage.record_move t.coverage ~step:t.steps w;
  match t.observer with
  | None -> ()
  | Some f ->
      f
        (Ewalk_obs.Trace.Step
           { step = t.steps; vertex = w; edge = e; blue = false })

type checkpoint = {
  ck_pos : Graph.vertex;
  ck_steps : int;
  ck_rotor : int array;
  ck_coverage : Coverage.state;
}

let checkpoint t =
  {
    ck_pos = t.pos;
    ck_steps = t.steps;
    ck_rotor = Array.copy t.rotor;
    ck_coverage = Coverage.save t.coverage;
  }

let of_checkpoint g ck =
  if ck.ck_pos < 0 || ck.ck_pos >= Graph.n g then
    invalid_arg "Rotor.of_checkpoint: position out of range";
  if ck.ck_steps < 0 then
    invalid_arg "Rotor.of_checkpoint: negative step counter";
  if Array.length ck.ck_rotor <> Graph.n g then
    invalid_arg "Rotor.of_checkpoint: rotor array does not match the graph";
  Array.iteri
    (fun v r ->
      let deg = Graph.degree g v in
      if r < 0 || (deg > 0 && r >= deg) || (deg = 0 && r <> 0) then
        invalid_arg "Rotor.of_checkpoint: rotor offset out of range")
    ck.ck_rotor;
  {
    g;
    pos = ck.ck_pos;
    steps = ck.ck_steps;
    rotor = Array.copy ck.ck_rotor;
    coverage = Coverage.restore g ck.ck_coverage;
    observer = None;
  }

let process t =
  {
    Cover.name = "rotor-router";
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }
