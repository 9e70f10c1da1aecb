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
    invalid_arg "Vprocess.create: start out of range";
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
  if deg = 0 then invalid_arg "Vprocess.step: isolated vertex";
  let base = Graph.adj_start t.g v in
  (* Reservoir-sample uniformly among slots leading to unvisited vertices. *)
  let chosen = ref (-1) in
  let count = ref 0 in
  for i = 0 to deg - 1 do
    let w = Graph.slot_vertex t.g (base + i) in
    if not (Coverage.vertex_visited t.coverage w) then begin
      incr count;
      if Rng.int t.rng !count = 0 then chosen := base + i
    end
  done;
  let slot = if !chosen >= 0 then !chosen else base + Rng.int t.rng deg in
  let w = Graph.slot_vertex t.g slot in
  t.steps <- t.steps + 1;
  Coverage.record_slot t.coverage ~step:t.steps slot;
  t.pos <- w;
  Coverage.record_move t.coverage ~step:t.steps w

let process t =
  {
    Cover.name = "v-process";
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }
