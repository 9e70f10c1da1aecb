open Ewalk_graph

type process = {
  name : string;
  graph : Graph.t;
  position : unit -> Graph.vertex;
  step : unit -> unit;
  steps_done : unit -> int;
  coverage : Coverage.t;
}

let default_cap g =
  let n = float_of_int (max 2 (Graph.n g)) in
  int_of_float (2000.0 *. n *. (log n +. 1.0)) + 100_000

(* Ambient flight-recorder boundaries: one enabled-check per run (never
   per step), so the crash post-mortem knows which run was in flight even
   when no trace sink is attached.  A run entered with steps already done
   announces itself as a resumed tail, which is what the replay verifier
   expects of a partial stream. *)
let flight_run_start p =
  if Ewalk_obs.Flight.ambient_active () then begin
    let k = p.steps_done () in
    Ewalk_obs.Trace.prologue Ewalk_obs.Flight.record
      ?resumed_at:(if k > 0 then Some k else None)
      ~name:p.name
      ~n:(Coverage.total_vertices p.coverage)
      ~m:(Coverage.total_edges p.coverage)
      ~start:(p.position ())
  end

let flight_run_end p =
  if Ewalk_obs.Flight.ambient_active () then
    Ewalk_obs.Flight.record
      (Ewalk_obs.Trace.Run_end
         {
           steps = p.steps_done ();
           covered = Coverage.all_vertices_visited p.coverage;
         })

let run_until ?(cap = max_int) p ~finished ~result =
  flight_run_start p;
  let gave_up = ref false in
  while (not (finished ())) && not !gave_up do
    if p.steps_done () >= cap then gave_up := true else p.step ()
  done;
  flight_run_end p;
  if finished () then Some (result ()) else None

let run_until_vertex_cover ?cap p =
  run_until ?cap p
    ~finished:(fun () -> Coverage.all_vertices_visited p.coverage)
    ~result:(fun () ->
      match Coverage.vertex_cover_step p.coverage with
      | Some t -> t
      | None -> assert false)

let run_until_edge_cover ?cap p =
  run_until ?cap p
    ~finished:(fun () -> Coverage.all_edges_visited p.coverage)
    ~result:(fun () ->
      match Coverage.edge_cover_step p.coverage with
      | Some t -> t
      | None -> assert false)

let run_steps p k =
  for _ = 1 to k do
    p.step ()
  done

let with_step_hook p ~hook =
  {
    p with
    step =
      (fun () ->
        p.step ();
        hook p);
  }
