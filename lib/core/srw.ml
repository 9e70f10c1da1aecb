open Ewalk_graph

type t = Engine.t

let make proc g rng ~start =
  if start < 0 || start >= Graph.n g then
    invalid_arg "Srw.create: start out of range";
  Engine.single proc g rng ~start

let create g rng ~start = make Engine.Srw g rng ~start
let create_lazy g rng ~start = make Engine.Lazy_srw g rng ~start
let graph = Engine.graph
let position = Engine.position
let steps = Engine.steps
let coverage = Engine.coverage
let step = Engine.step
let run_steps = Engine.run_steps
let process = Engine.process
