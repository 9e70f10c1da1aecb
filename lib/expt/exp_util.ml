open Ewalk_graph
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Cover = Ewalk.Cover
module Visits = Ewalk.Visits

module Observe = Ewalk.Observe

let regular_graph rng ~n ~d = Gen_regular.random_regular_connected rng n d

let with_cap cap g = match cap with Some c -> c | None -> Cover.default_cap g

(* Run [p] to (vertex or edge) coverage under an observation bundle:
   instrument, run, emit Run_end.  [Observe.noop]-ish bundles add nothing. *)
let run_observed ?obs ~edges ~cap p =
  match obs with
  | None ->
      if edges then Cover.run_until_edge_cover ~cap p
      else Cover.run_until_vertex_cover ~cap p
  | Some obs ->
      let p = Observe.instrument obs p in
      let r =
        if edges then Cover.run_until_edge_cover ~cap p
        else Cover.run_until_vertex_cover ~cap p
      in
      Observe.finish obs p;
      r

let vertex_cover_eprocess ?rule ?visits ?cap ?obs rng g =
  let t = Eprocess.create ?rule g rng ~start:0 in
  Option.iter (fun o -> Observe.attach o t) obs;
  let p = Eprocess.process t in
  let p = match visits with Some v -> Visits.attach v p | None -> p in
  run_observed ?obs ~edges:false ~cap:(with_cap cap g) p

let edge_cover_eprocess ?rule ?cap ?obs rng g =
  let t = Eprocess.create ?rule g rng ~start:0 in
  Option.iter (fun o -> Observe.attach o t) obs;
  run_observed ?obs ~edges:true ~cap:(with_cap cap g) (Eprocess.process t)

let vertex_cover_srw ?cap ?obs rng g =
  let t = Srw.create g rng ~start:0 in
  Option.iter (fun o -> Observe.attach o t) obs;
  run_observed ?obs ~edges:false ~cap:(with_cap cap g) (Srw.process t)

let edge_cover_srw ?cap ?obs rng g =
  let t = Srw.create g rng ~start:0 in
  Option.iter (fun o -> Observe.attach o t) obs;
  run_observed ?obs ~edges:true ~cap:(with_cap cap g) (Srw.process t)

let adversary_stay_explored visits t candidates =
  let g = Eprocess.graph t in
  let here = Eprocess.position t in
  let best = ref 0 and best_visits = ref min_int in
  Array.iteri
    (fun i e ->
      let w = Graph.opposite g e here in
      let visits = Visits.visit_count visits w in
      if visits > !best_visits then begin
        best := i;
        best_visits := visits
      end)
    candidates;
  !best

let adversary_min_blue t candidates =
  let g = Eprocess.graph t in
  let here = Eprocess.position t in
  let best = ref 0 and best_blue = ref max_int in
  Array.iteri
    (fun i e ->
      let w = Graph.opposite g e here in
      let blue = Eprocess.blue_degree t w in
      if blue < !best_blue then begin
        best := i;
        best_blue := blue
      end)
    candidates;
  !best
