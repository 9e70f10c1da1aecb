open Ewalk_graph

type t = Engine.t

let create ?(randomize_rotors = false) g rng ~start =
  if start < 0 || start >= Graph.n g then
    invalid_arg "Rotor.create: start out of range";
  Engine.single ~randomize_rotors Engine.Rotor g rng ~start

let graph = Engine.graph
let position = Engine.position
let steps = Engine.steps
let coverage = Engine.coverage
let rotor_offset t v = Engine.rotor_offset t 0 v
let step = Engine.step
let process = Engine.process
