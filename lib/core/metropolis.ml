open Ewalk_graph
module Rng = Ewalk_prng.Rng

type t = {
  g : Graph.t;
  rng : Rng.t;
  mutable pos : Graph.vertex;
  mutable steps : int;
  coverage : Coverage.t;
}

let create g rng ~start =
  if start < 0 || start >= Graph.n g then
    invalid_arg "Metropolis.create: start out of range";
  let coverage = Coverage.create g in
  Coverage.record_start coverage start;
  { g; rng; pos = start; steps = 0; coverage }

let graph t = t.g
let position t = t.pos
let steps t = t.steps
let coverage t = t.coverage

let step t =
  let v = t.pos in
  let deg = Graph.degree t.g v in
  if deg = 0 then invalid_arg "Metropolis.step: isolated vertex";
  t.steps <- t.steps + 1;
  let slot = Graph.adj_start t.g v + Rng.int t.rng deg in
  let w = Graph.slot_vertex t.g slot in
  let accept =
    Graph.degree t.g w <= deg
    || Rng.float t.rng 1.0 < float_of_int deg /. float_of_int (Graph.degree t.g w)
  in
  if accept then begin
    Coverage.record_slot t.coverage ~step:t.steps slot;
    t.pos <- w;
    Coverage.record_move t.coverage ~step:t.steps w
  end
  else Coverage.record_move t.coverage ~step:t.steps v

let process t =
  {
    Cover.name = "metropolis";
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }
