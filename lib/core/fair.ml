open Ewalk_graph
module Rng = Ewalk_prng.Rng

type strategy = Least_used_first | Oldest_first

type t = {
  g : Graph.t;
  rng : Rng.t;
  strategy : strategy;
  random_ties : bool;
  mutable pos : Graph.vertex;
  mutable steps : int;
  used : int array; (* per-edge traversal count *)
  last_used : int array; (* per-edge step of last traversal, -1 = never *)
  coverage : Coverage.t;
}

let create ?(random_ties = false) ~strategy g rng ~start =
  if start < 0 || start >= Graph.n g then
    invalid_arg "Fair.create: start out of range";
  let coverage = Coverage.create g in
  Coverage.record_start coverage start;
  {
    g;
    rng;
    strategy;
    random_ties;
    pos = start;
    steps = 0;
    used = Array.make (Graph.m g) 0;
    last_used = Array.make (Graph.m g) (-1);
    coverage;
  }

let graph t = t.g
let position t = t.pos
let steps t = t.steps
let coverage t = t.coverage
let traversals t e = t.used.(e)

let score t e =
  match t.strategy with
  | Least_used_first -> t.used.(e)
  | Oldest_first -> t.last_used.(e)

let step t =
  let v = t.pos in
  let deg = Graph.degree t.g v in
  if deg = 0 then invalid_arg "Fair.step: isolated vertex";
  let base = Graph.adj_start t.g v in
  let best_slot = ref base in
  let best = ref (score t (Graph.slot_edge t.g base)) in
  let ties = ref 1 in
  for i = 1 to deg - 1 do
    let slot = base + i in
    let s = score t (Graph.slot_edge t.g slot) in
    if s < !best then begin
      best := s;
      best_slot := slot;
      ties := 1
    end
    else if s = !best && t.random_ties then begin
      incr ties;
      if Rng.int t.rng !ties = 0 then best_slot := slot
    end
  done;
  let w = Graph.slot_vertex t.g !best_slot in
  let e = Graph.slot_edge t.g !best_slot in
  t.steps <- t.steps + 1;
  t.used.(e) <- t.used.(e) + 1;
  t.last_used.(e) <- t.steps;
  Coverage.record_slot t.coverage ~step:t.steps !best_slot;
  t.pos <- w;
  Coverage.record_move t.coverage ~step:t.steps w

let process t =
  {
    Cover.name =
      (match t.strategy with
      | Least_used_first -> "least-used-first"
      | Oldest_first -> "oldest-first");
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }
