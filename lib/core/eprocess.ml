open Ewalk_graph

type t = Engine.t

type rule =
  | Uar
  | Lowest_slot
  | Highest_slot
  | Adversarial of (t -> Graph.edge array -> int)

type phase_kind = Engine.phase_kind = Blue | Red

type phase = {
  kind : phase_kind;
  start_step : int;
  start_vertex : Graph.vertex;
  end_step : int;
  end_vertex : Graph.vertex;
}

let proc_of_rule = function
  | Uar -> Engine.E_uar
  | Lowest_slot -> Engine.E_lowest
  | Highest_slot -> Engine.E_highest
  | Adversarial f -> Engine.E_adversarial f

let create ?(rule = Uar) g rng ~start =
  if Graph.n g = 0 then invalid_arg "Eprocess.create: empty graph";
  if start < 0 || start >= Graph.n g then
    invalid_arg "Eprocess.create: start out of range";
  Engine.single (proc_of_rule rule) g rng ~start

let graph = Engine.graph
let position = Engine.position
let steps = Engine.steps
let blue_steps = Engine.blue_steps
let red_steps = Engine.red_steps
let coverage = Engine.coverage

let blue_degree t v =
  let g = Engine.graph t in
  Arc_marks.live
    (Coverage.marks (coverage t))
    ~start:(Graph.adj_start g v) ~stop:(Graph.adj_stop g v)

let unvisited_incident t v =
  Arc_marks.incident_edges (Coverage.marks (coverage t)) v
let in_blue_phase t = blue_degree t (position t) > 0
let step = Engine.step
let run_steps = Engine.run_steps
let run_to_vertex_cover = Engine.run_to_vertex_cover
let process = Engine.process

(* Each [Phase] event opens a phase at its stamp and vertex, and so closes
   the one before it there. *)
let phase_log t =
  let completed = ref [] and current = ref None in
  Engine.set_phase_observer t
    (Some
       (fun ~walker:_ ev ->
         match ev with
         | Ewalk_obs.Trace.Phase { step; kind; vertex } ->
             (match !current with
             | Some (kind, start_step, start_vertex) ->
                 let phase =
                   { kind; start_step; start_vertex; end_step = step;
                     end_vertex = vertex }
                 in
                 completed := phase :: !completed
             | None -> ());
             let kind =
               match kind with Ewalk_obs.Trace.Blue -> Blue | Red -> Red
             in
             current := Some (kind, step, vertex)
         | _ -> ()));
  fun () -> List.rev !completed
