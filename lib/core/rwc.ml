open Ewalk_graph
module Rng = Ewalk_prng.Rng

type t = {
  g : Graph.t;
  rng : Rng.t;
  d : int;
  mutable pos : Graph.vertex;
  mutable steps : int;
  visits : int array; (* occupancy per vertex, the start counted once *)
  coverage : Coverage.t;
}

let create ?(d = 2) g rng ~start =
  if d < 1 then invalid_arg "Rwc.create: d < 1";
  if start < 0 || start >= Graph.n g then
    invalid_arg "Rwc.create: start out of range";
  let coverage = Coverage.create g in
  Coverage.record_start coverage start;
  let visits = Array.make (Graph.n g) 0 in
  visits.(start) <- 1;
  { g; rng; d; pos = start; steps = 0; visits; coverage }

let graph t = t.g
let position t = t.pos
let steps t = t.steps
let coverage t = t.coverage

let step t =
  let v = t.pos in
  let deg = Graph.degree t.g v in
  if deg = 0 then invalid_arg "Rwc.step: isolated vertex";
  let base = Graph.adj_start t.g v in
  (* Sample d slots with replacement; keep the least-visited endpoint,
     breaking ties uniformly via reservoir counting. *)
  let best_slot = ref (base + Rng.int t.rng deg) in
  let best_count = ref t.visits.(Graph.slot_vertex t.g !best_slot) in
  let ties = ref 1 in
  for _ = 2 to t.d do
    let slot = base + Rng.int t.rng deg in
    let c = t.visits.(Graph.slot_vertex t.g slot) in
    if c < !best_count then begin
      best_slot := slot;
      best_count := c;
      ties := 1
    end
    else if c = !best_count then begin
      incr ties;
      if Rng.int t.rng !ties = 0 then best_slot := slot
    end
  done;
  let w = Graph.slot_vertex t.g !best_slot in
  let e = Graph.slot_edge t.g !best_slot in
  t.steps <- t.steps + 1;
  Coverage.record_edge t.coverage ~step:t.steps e;
  t.pos <- w;
  t.visits.(w) <- t.visits.(w) + 1;
  Coverage.record_move t.coverage ~step:t.steps w

let process t =
  {
    Cover.name = Printf.sprintf "rwc(%d)" t.d;
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }
