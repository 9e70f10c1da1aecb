(** Rotor-router walk (Propp machine).

    The deterministic exploration process the paper positions the E-process
    against: each vertex carries a rotor cycling through its incident edges
    in fixed order; the walk always leaves along the current rotor edge and
    advances the rotor.  Covers any connected graph in O(m D) steps
    (Yanovski et al.), and after a transient settles into an Eulerian
    circulation — properties exercised by the test suite. *)

open Ewalk_graph

type t

val create :
  ?randomize_rotors:bool -> Graph.t -> Ewalk_prng.Rng.t ->
  start:Graph.vertex -> t
(** Rotors start at slot 0 of each adjacency list, or at uniformly random
    offsets (drawn in vertex order) with [~randomize_rotors:true] (the rng
    is unused otherwise).
    @raise Invalid_argument if [start] is out of range. *)

val graph : t -> Graph.t
val position : t -> Graph.vertex
val steps : t -> int
val coverage : t -> Coverage.t

val rotor_offset : t -> Graph.vertex -> int
(** Current rotor position (slot offset) at a vertex. *)

val step : t -> unit
(** @raise Invalid_argument on an isolated vertex. *)

val set_observer : t -> (Ewalk_obs.Trace.event -> unit) option -> unit
(** Install (or remove, with [None]) a per-step trace observer: every
    transition emits a {!Ewalk_obs.Trace.Step} event (always with
    [blue = false] — the rotor walk has no unvisited-edge preference).
    Use {!Observe.attach_rotor} rather than calling this directly. *)

val process : t -> Cover.process

(** {2 Checkpointing} *)

type checkpoint = {
  ck_pos : Graph.vertex;
  ck_steps : int;
  ck_rotor : int array;
  ck_coverage : Coverage.state;
}
(** Plain-data walk state: the rotor walk is deterministic after creation,
    so position, step count, rotor offsets and coverage are everything. *)

val checkpoint : t -> checkpoint

val of_checkpoint : Graph.t -> checkpoint -> t
(** Rebuild the walk; the observer is not restored.
    @raise Invalid_argument if the checkpoint does not fit the graph. *)
